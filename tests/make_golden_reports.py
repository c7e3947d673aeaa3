"""Regenerate the golden reports that ``test_golden_reports.py`` compares
against: ``PYTHONPATH=src python tests/make_golden_reports.py``.

Twelve two-epoch runs on one small generated dataset: each CF variant
trained in ``e2e``, ``gram`` at latencies 1S, 2S and 1E, ``no_content``
and ``no_finetune``. A change that moves a pinned value regenerates the
file and lists each move.
"""

import json
import pathlib

from gram.dataset import GenConfig, generate_synthetic
from gram.model import CF_VARIANTS, ModelConfig
from gram.training import TrainConfig, train

PATH = pathlib.Path(__file__).parent / "data" / "golden_reports.json"
RUNS = (("e2e", "1S"), ("gram", "1S"), ("gram", "2S"), ("gram", "1E"),
        ("no_content", "1S"), ("no_finetune", "1S"))
# pinned exactly; every other number is pinned to a relative tolerance
EXACT_COUNTERS = ("ce_forward_calls", "ce_backward_calls", "cf_forward_calls",
                  "flop_estimate", "activation_elements_peak")


def golden_reports() -> dict:
    """The pinned part of each run's report, keyed "<cf variant>/<mode>/<latency>"."""
    ds, _ = generate_synthetic(GenConfig(n_users=60), seed=5)
    out = {}
    for variant in CF_VARIANTS:
        for mode, latency in RUNS:
            cfg = TrainConfig(model=ModelConfig(cf_variant=variant), latency=latency,
                              max_epochs=2, patience=0)
            report, _ = train(ds, mode, cfg)
            out[f"{variant}/{mode}/{latency}"] = {
                "best_epoch": report.best_epoch,
                "counters": {k: report.counters[k] for k in EXACT_COUNTERS},
                "history": [{k: h[k] for k in ("ce_forward_calls", "train_loss", "val_auc")}
                            for h in report.history],
                "final_metrics": report.final_metrics,
            }
    return out


if __name__ == "__main__":
    PATH.write_text(json.dumps(golden_reports(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
