"""The core claim, step by step: training the encoder against
pseudo-targets reproduces joint backpropagation exactly.

Part 1 shows the mechanics on one batch; part 2 lets the built-in
verifier sweep gradients and full 50-step trajectories.
"""

import numpy as np

from gram.dataset import Batch, GenConfig, generate_synthetic
from gram.model import ModelConfig, init_params
from gram.training import (
    TrainConfig,
    e2e_gradients,
    gram_gradients,
    index_items,
    max_rel_err,
    verify_equivalence,
)


def main():
    gen = GenConfig(n_users=80, n_items=24, n_topics=4, vocab_size=100,
                    seq_len_range=(6, 16))
    dataset, _ = generate_synthetic(gen, seed=11)
    model = ModelConfig(d=12, d_ff=24, d_h=12, vocab_size=100)

    # --- one batch, both gradient routes -------------------------------
    ce, cf = init_params(model, seed=5)
    item_ids, tokens = index_items(dataset)
    batch = Batch(users=dataset.users[:8])
    print(f"batch: {batch.n_interactions()} occurrences of "
          f"{len(batch.unique_items)} unique items")

    loss_ref, ref = e2e_gradients(batch, ce, cf, item_ids, tokens)
    loss_alt, alt = gram_gradients(batch, ce, cf, item_ids, tokens)
    ce_keys = [k for k in ref if k.startswith("ce.")]
    print(f"joint-backprop loss {loss_ref:.6f}")
    print(f"encoder-gradient max rel err: "
          f"{max_rel_err({k: ref[k] for k in ce_keys}, {k: alt[k] for k in ce_keys}):.2e}")
    print("(the cached route encodes each unique item once, regresses the "
          "encoder onto encoding-minus-gradient targets, and recovers the "
          "same parameter gradients up to float rounding)")

    # --- gradients and trajectories, both optimizers -------------------
    cfg = TrainConfig(model=model, cf_batch_size=8, seed=3)
    rep = verify_equivalence(dataset, cfg, n_trials=5, k_steps=50)
    print(f"\nverifier over {rep['n_trials']} random batches:")
    print(f"  max encoder grad rel err    {rep['max_ce_grad_rel_err']:.2e}")
    print(f"  max predictor grad rel err  {rep['max_cf_grad_rel_err']:.2e}")
    print(f"  50-step divergence, sgd     {rep['max_trajectory_rel_err_sgd']:.2e}")
    print(f"  50-step divergence, adam    {rep['max_trajectory_rel_err_adam']:.2e}")

    worst = rep["max_trajectory_rel_err"]
    print(f"\nafter 50 optimizer steps the two parameterizations agree to "
          f"{worst:.1e} — the alternating scheme is joint backprop, reordered")


if __name__ == "__main__":
    main()
