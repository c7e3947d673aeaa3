"""The core claim, step by step: summing each item encoding's gradient
over its touches and backpropagating that sum through the encoder
reproduces joint backpropagation exactly.

Part 1 shows the mechanics on one batch; part 2 lets the built-in
verifier sweep gradients and full 50-step trajectories.
"""

import numpy as np

from gram.dataset import Batch, GenConfig, generate_synthetic
from gram.model import ModelConfig, init_params
from gram.training import (
    TrainConfig,
    init_trainer,
    max_rel_err,
    step_gradients,
    verify_equivalence,
)


def main():
    gen = GenConfig(n_users=80, n_items=24, n_topics=4, vocab_size=100,
                    seq_len_range=(6, 16))
    dataset, _ = generate_synthetic(gen, seed=11)
    model = ModelConfig(d=12, d_ff=24, d_h=12, vocab_size=100)

    # --- one batch, both trainers' step up to the optimizers -----------
    ce, cf = init_params(model, seed=5)
    batch = Batch(users=dataset.users[:8])
    print(f"batch: {batch.n_interactions()} occurrences of "
          f"{len(batch.unique_items)} unique items")

    step_cfg = TrainConfig(model=model, latency="1S")
    out = {}
    for mode in ("e2e", "gram"):
        state = init_trainer(dataset, mode, step_cfg)
        state.ce, state.cf = ce, cf         # both trainers hold the same parameters
        out[mode] = step_gradients(batch, state)
    (rep_ref, ref), (rep_alt, alt) = out["e2e"], out["gram"]
    print(f"joint-backprop loss {rep_ref['loss']:.6f}, cached loss {rep_alt['loss']:.6f}")
    ce_err = max_rel_err(ce.views(ref["ce"]), ce.views(alt["ce"]))    # per tensor
    print(f"encoder-gradient max rel err: {ce_err:.2e}")
    print(f"(the cached step encodes each of the {rep_alt['ce_items']} unique items "
          "once, in one graph with the predictor; the ops that read each touch's "
          "encoding add the touches' gradients into its item's row in backward, and "
          "one backward recovers the same parameter gradients up to float rounding)")

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
