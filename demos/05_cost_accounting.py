"""Where the speed and memory go: encoder-call counters, the activation
accountant, and the call-ratio arithmetic that the tests assert exactly."""

from dataclasses import replace
from fractions import Fraction

from gram.dataset import Batch, Dataset, GenConfig, Item, UserSequence, \
    batch_iter, boost_ratio, compute_stats, generate_synthetic
from gram.model import ModelConfig
from gram.training import TrainConfig, init_trainer, train, train_step


def toy_batch():
    """Three users, twelve interactions, five distinct items."""
    items = [Item(i, tuple(range(1, 4 + i % 3))) for i in range(5)]
    # user u saw items[u] and gave responses resps[u]
    items_of = [(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 4, 1)]
    resps_of = [(1, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 1)]
    users = [UserSequence(u, items_of[u], resps_of[u]) for u in range(3)]
    return Dataset(items=items, users=users), Batch(users=users)


def main():
    # --- the counting argument on a batch you can check by hand --------
    toy, batch = toy_batch()
    print(f"toy batch: {batch.n_interactions()} occurrences, "
          f"{len(batch.unique_items)} unique items, "
          f"boost ratio {boost_ratio(batch)}")
    model = ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=40)
    sg = init_trainer(toy, "gram", TrainConfig(model=model))
    se = init_trainer(toy, "e2e", TrainConfig(model=model))
    train_step(batch, sg)
    train_step(batch, se)
    print(f"encoder forwards: joint {se.counters.ce_forward_calls}, "
          f"cached {sg.counters.ce_forward_calls} "
          f"(ratio {Fraction(se.counters.ce_forward_calls, sg.counters.ce_forward_calls)})")

    # --- a full epoch at desk scale ------------------------------------
    dataset, _ = generate_synthetic(GenConfig(n_users=300), seed=9)
    st = compute_stats(dataset)
    cfg = TrainConfig(cf_batch_size=16)
    steps = -(-len(dataset.users) // cfg.cf_batch_size)
    sg = init_trainer(dataset, "gram", replace(cfg, latency="1E"),  # window = epoch
                      steps_per_epoch=steps)
    se = init_trainer(dataset, "e2e", cfg)
    for b in batch_iter(dataset.users, cfg.cf_batch_size, shuffle_seed=1):
        train_step(b, sg)
        train_step(b, se)
    print(f"\none epoch over {st.n_users} users: joint encodes "
          f"{se.counters.ce_forward_calls} times (= every occurrence), the "
          f"epoch-window cache {sg.counters.ce_forward_calls} times (= every item)")
    ratio = Fraction(se.counters.ce_forward_calls, sg.counters.ce_forward_calls)
    r = Fraction(st.n_interactions, st.n_items)
    assert ratio == r, f"call ratio {ratio} != dataset R {r}"
    print(f"call ratio {ratio} == dataset R {r} = {float(r):.2f}, exactly")
    ran = se.counters.ce_forward_calls / (sg.counters.ce_forward_calls
                                          + sg.counters.ce_reencode_calls)
    print(f"encoder forwards run ratio {ran:.2f}: the window's close encodes its "
          f"{sg.counters.ce_reencode_calls} items again, with grad")

    # --- activation memory ---------------------------------------------
    small = TrainConfig(cf_batch_size=4, ce_batch_size=8, max_epochs=1,
                        patience=0, seed=3)
    rep_g, _ = train(dataset, "gram", replace(small, latency="1E"))
    rep_e, _ = train(dataset, "e2e", small)
    pg = rep_g.counters["activation_elements_peak"]
    pe = rep_e.counters["activation_elements_peak"]
    print(f"\npeak live activation elements, one epoch: cached {pg}, joint {pe} "
          f"({pg / pe:.0%})")
    print("joint backprop keeps the encoder activations of every occurrence alive; the")
    print("cached scheme's peak is the larger of one predictor batch and one encoder")
    print("chunk, which are never alive together. A single-step window re-encodes")
    print("nothing: its step's one graph holds the encoder activations of the batch's")
    print("distinct items beside the predictor's")


if __name__ == "__main__":
    main()
