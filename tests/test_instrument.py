"""Counter / accountant / timer unit tests."""

import time

import pytest

from gram.instrument import ActivationAccountant, CostCounters, PhaseTimer, ce_flops


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
    assert list(d) == ["ce_forward_calls", "ce_reencode_calls", "ce_backward_calls", "cf_forward_calls",
                       "activation_elements_peak", "flop_estimate", "wall_clock_ns"]


def test_flop_closed_forms():
    # one row of 5 tokens at d=4: attention l_t^2 d plus projection l_t d^2
    assert ce_flops(1, 5, 4) == 2 * (25 * 4 + 5 * 16)
    # e2e's batch of 3 users x 4 interactions is the rule on its 12
    # occurrence rows, and gram's the rule on its distinct items' rows
    assert ce_flops(3 * 4, 5, 4) == 12 * ce_flops(1, 5, 4)

