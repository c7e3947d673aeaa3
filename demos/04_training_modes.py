"""Training the four modes on one dataset and comparing what they learn.

The point of the comparison: the cached single-step run matches joint
backprop exactly; widening the update window trades a little accuracy
for far fewer encoder calls; the ablations show where the content
pathway actually matters (cold-start items)."""

import time

from gram.dataset import GenConfig, generate_synthetic
from gram.training import OptimizerConfig, TrainConfig, train


def run_config(latency="1S"):
    return TrainConfig(
        opt_ce=OptimizerConfig(kind="adam", lr=1e-3),
        opt_cf=OptimizerConfig(kind="adam", lr=1e-3),
        cf_batch_size=16, max_epochs=15, latency=latency, seed=3,
    )


def main():
    dataset, _ = generate_synthetic(GenConfig(n_users=250), seed=2024)

    rows = []
    for label, mode, latency in [
        ("joint backprop", "e2e", "1S"),
        ("cached, window 1", "gram", "1S"),
        ("cached, window 1 epoch", "gram", "1E"),
        ("id-embedding only", "no_content", "1S"),
        ("frozen encoder", "no_finetune", "1S"),
    ]:
        t0 = time.time()
        report, _ = train(dataset, mode, run_config(latency))
        m, c = report.final_metrics, report.counters
        rows.append((label, m["auc"], m["cs_auc"], c["ce_forward_calls"],
                     time.time() - t0))

    print(f"{'mode':<24s} {'auc':>7s} {'cold auc':>9s} {'enc fwd':>9s} {'wall':>7s}")
    for label, auc, cs, fwd, wall in rows:
        cs_txt = f"{cs:.4f}" if cs is not None else "   n/a"
        print(f"{label:<24s} {auc:7.4f} {cs_txt:>9s} {fwd:9d} {wall:6.1f}s")

    print("\nreading the table:")
    print(" - the two window-1 rows agree to the digit: same trajectory")
    print(" - the 1-epoch window cuts encoder forwards by the boost ratio;")
    print("   at this short epoch budget it trails, and mostly closes the gap")
    print("   given a full training run")
    print(" - id embeddings collapse on cold items (chance-level cold auc)")
    print(" - a frozen random encoder generalizes to cold items but lags the")
    print("   fine-tuned encoder overall")


if __name__ == "__main__":
    main()
