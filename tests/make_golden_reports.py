"""Regenerate the golden reports that ``test_golden_reports.py`` compares
against: ``PYTHONPATH=src python tests/make_golden_reports.py``.

Twelve two-epoch runs on one small generated dataset: each CF variant
trained in ``e2e``, ``gram`` at latencies 1S, 2S and 1E, ``no_content``
and ``no_finetune``. Regeneration rewrites only the values that moved,
as the test judges them, and lists each move: a loss that another BLAS
build sums to a different last digit keeps its committed value.
"""

import json
import pathlib

from gram.dataset import GenConfig, generate_synthetic
from gram.model import CF_VARIANTS, ModelConfig
from gram.training import TrainConfig, train

PATH = pathlib.Path(__file__).parent / "data" / "golden_reports.json"
RUNS = (("e2e", "1S"), ("gram", "1S"), ("gram", "2S"), ("gram", "1E"),
        ("no_content", "1S"), ("no_finetune", "1S"))
# pinned exactly, as is every value that is not a float; every other
# float is pinned to a relative RTOL (a BLAS build may order sums differently)
EXACT_COUNTERS = ("ce_forward_calls", "ce_reencode_calls", "ce_backward_calls",
                  "cf_forward_calls", "flop_estimate", "activation_elements_peak")
RTOL = 1e-9


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


def moves(path, got, want):
    """Each place where ``got`` departs from ``want``, as (path, got, want)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [(path, sorted(got), sorted(want))]
        return [m for k in want for m in moves(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in moves(f"{path}[{k}]", g, w)]
    if got == want:
        return []
    tolerant = path.rsplit(".", 1)[-1] not in EXACT_COUNTERS and isinstance(want, float)
    if tolerant and isinstance(got, float) and abs(got - want) <= RTOL * abs(want):
        return []
    return [(path, got, want)]


def merged(got, want, path=""):
    """``got``, except that each value ``moves`` does not count as moved
    from ``want`` keeps ``want``'s value."""
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return {k: merged(got[k], want[k], f"{path}.{k}") for k in got}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [merged(g, w, f"{path}[{k}]") for k, (g, w) in enumerate(zip(got, want))]
    return got if moves(path, got, want) else want


if __name__ == "__main__":
    got = golden_reports()
    want = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    for p, g, w in moves("", got, want):
        print(f"{p}: {w!r} -> {g!r}")
    PATH.write_text(json.dumps(merged(got, want), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
