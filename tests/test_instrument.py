"""Counter / accountant / speed-report unit tests."""

import time

import pytest

from gram.instrument import (
    ActivationAccountant,
    CostCounters,
    PhaseTimer,
    SpeedReport,
    e2e_ce_flops_per_batch,
    gram_ce_flops_per_batch,
    speed_report,
)


def test_accountant_tracks_peak():
    a = ActivationAccountant()
    a.acquire(10)
    a.acquire(5)
    a.release(8)
    a.acquire(1)
    assert a.current == 8
    assert a.peak == 15


def test_accountant_rejects_over_release():
    a = ActivationAccountant()
    a.acquire(3)
    with pytest.raises(RuntimeError):
        a.release(4)


def test_accountant_reset():
    a = ActivationAccountant()
    a.acquire(7)
    a.release(7)
    a.reset()
    assert a.current == 0 and a.peak == 0


def test_phase_timer_accumulates():
    t = PhaseTimer()
    with t.measure("cf"):
        time.sleep(0.003)
    with t.measure("cf"):
        time.sleep(0.003)
    with t.measure("ce"):
        time.sleep(0.002)
    assert t.totals_ns["cf"] >= 6_000_000
    assert t.totals_ns["ce"] >= 2_000_000
    assert set(t.totals_ns) == {"cf", "ce"}
    # a body that raises still counts, and the error propagates
    with pytest.raises(KeyError):
        with t.measure("eval"):
            time.sleep(0.002)
            raise KeyError("x")
    assert t.totals_ns["eval"] >= 2_000_000


def test_counters_as_dict_keys():
    c = CostCounters(ce_forward_calls=3)
    d = c.as_dict()
    assert d["ce_forward_calls"] == 3
    assert list(d) == ["ce_forward_calls", "ce_backward_calls", "cf_forward_calls",
                       "activation_elements_peak", "flop_estimate", "wall_clock_ns"]


def test_flop_closed_forms():
    # one user, one interaction: the two forms coincide at one unique item
    assert e2e_ce_flops_per_batch(1, 1, 5, 4) == 2 * (25 * 4 + 5 * 16)
    assert gram_ce_flops_per_batch(1, 5, 4) == 2 * (5 * 16 + 25 * 4)
    # e2e scales with occurrences, accumulated form with unique items
    assert e2e_ce_flops_per_batch(3, 4, 5, 4) == 12 * gram_ce_flops_per_batch(1, 5, 4)


def test_speed_report_matches_theory():
    e2e = CostCounters(ce_forward_calls=12, wall_clock_ns=100)
    gram = CostCounters(ce_forward_calls=5, wall_clock_ns=40)
    r = speed_report(e2e, gram, theoretical_r=12 / 5, cf_phase_ns=30, ce_phase_ns=10)
    assert isinstance(r, SpeedReport)
    assert r.measured_call_ratio == pytest.approx(2.4)
    assert r.e2e_wall_ns == 100 and r.gram_wall_ns == 40
    assert r.as_dict()["cf_phase_ns"] == 30


def test_speed_report_flags_cache_breakage():
    e2e = CostCounters(ce_forward_calls=12)
    gram = CostCounters(ce_forward_calls=6)   # should have been 5
    with pytest.raises(AssertionError):
        speed_report(e2e, gram, theoretical_r=12 / 5)


def test_speed_report_needs_gram_forwards():
    with pytest.raises(ValueError):
        speed_report(CostCounters(ce_forward_calls=1), CostCounters(), 1.0)
