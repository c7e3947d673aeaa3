"""Golden reports: twelve small runs must reproduce the committed counters
exactly and their losses and metrics to a relative ``RTOL`` (a BLAS build
may order sums differently). ``make_golden_reports.py`` regenerates the
file when a change moves a value on purpose."""

import json

from make_golden_reports import PATH, RTOL, golden_reports, merged, moves


def test_reports_match_golden():
    want = json.loads(PATH.read_text(encoding="utf-8"))
    assert len(want) == 12
    found = moves("", golden_reports(), want)
    assert not found, "\n".join(f"{p}: {g!r} != golden {w!r}" for p, g, w in found)


def test_regeneration_rewrites_only_moved_values():
    want = {"r": {"counters": {"flop_estimate": 3.0e12, "activation_elements_peak": 58233},
                  "history": [{"ce_forward_calls": 7, "train_loss": 0.5}],
                  "final_metrics": {"auc": 0.7, "cs_auc": None}}}
    got = {"r": {"counters": {"flop_estimate": 3.0e12 + 1.0, "activation_elements_peak": 58234},
                 "history": [{"ce_forward_calls": 7, "train_loss": 0.5 * (1 + RTOL / 2)}],
                 "final_metrics": {"auc": 0.7 * (1 + 2 * RTOL), "cs_auc": None}}}
    assert merged(got, want) == {
        "r": {"counters": {"flop_estimate": 3.0e12 + 1.0,       # a counter: any difference
                           "activation_elements_peak": 58234},
              "history": [{"ce_forward_calls": 7, "train_loss": 0.5}],   # inside RTOL
              "final_metrics": {"auc": 0.7 * (1 + 2 * RTOL), "cs_auc": None}}}  # outside
    assert [p for p, _, _ in moves("", got, want)] == [
        ".r.counters.flop_estimate", ".r.counters.activation_elements_peak",
        ".r.final_metrics.auc"]
    # a run that is new, or lost its keys, is taken whole
    assert merged({"s": {"auc": 0.5}}, {"s": {}}) == {"s": {"auc": 0.5}}
    assert merged({"s": 1}, {}) == {"s": 1}
