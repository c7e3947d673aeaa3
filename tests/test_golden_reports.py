"""Golden reports: twelve small runs must reproduce the committed counters
exactly and their losses and metrics to a relative 1e-9 (a BLAS build
may order sums differently). ``make_golden_reports.py`` regenerates the
file when a change moves a value on purpose."""

import json

import pytest

from make_golden_reports import EXACT_COUNTERS, PATH, golden_reports

RTOL = 1e-9


def _moves(path, got, want):
    """Each place where ``got`` departs from ``want``, as (path, got, want)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [(path, sorted(got), sorted(want))]
        return [m for k in want for m in _moves(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in _moves(f"{path}[{k}]", g, w)]
    exact = path.rsplit(".", 1)[-1] in EXACT_COUNTERS or not isinstance(want, float)
    if got == want if exact else got == pytest.approx(want, rel=RTOL, abs=0):
        return []
    return [(path, got, want)]


def test_reports_match_golden():
    want = json.loads(PATH.read_text(encoding="utf-8"))
    assert len(want) == 12
    moves = _moves("", golden_reports(), want)
    assert not moves, "\n".join(f"{p}: {g!r} != golden {w!r}" for p, g, w in moves)
