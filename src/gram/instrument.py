"""Cost accounting: encoder call counters, live-activation peaks, FLOP
estimates, and wall-clock phase timers.

Memory is measured in live saved-activation *elements*, not bytes, and
excludes parameter/input leaves (both training styles hold those equally).
The accountant plugs into ``autodiff.track_activations``: ops acquire
their saved sizes at node creation and release them as backward consumes
the node, so ``peak`` is a deterministic, allocator-independent proxy for
the activation memory a step keeps alive.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field


class ActivationAccountant:
    """Tracks currently live saved-activation elements and their peak."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def acquire(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def release(self, n: int) -> None:
        self.current -= n
        if self.current < 0:
            raise RuntimeError("activation accountant released more than acquired")

    def reset(self) -> None:
        self.current = 0
        self.peak = 0


@dataclass
class CostCounters:
    """Per-run counters. Forward/backward CE counts are the quantities the
    boost ratio speaks about: encoding-producing forwards, and gradient
    computations through the encoder."""

    ce_forward_calls: int = 0
    ce_backward_calls: int = 0
    cf_forward_calls: int = 0
    activation_elements_peak: int = 0
    flop_estimate: float = 0.0
    wall_clock_ns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PhaseTimer:
    """Accumulates wall-clock per named phase (cf / ce / eval / ...)."""

    totals_ns: dict = field(default_factory=dict)

    def measure(self, phase: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter_ns()
                return self

            def __exit__(self, *exc):
                timer.totals_ns[phase] = timer.totals_ns.get(phase, 0) + (
                    time.perf_counter_ns() - self.t0)
                return False

        return _Ctx()

    def total(self) -> int:
        return sum(self.totals_ns.values())


# ---------------------------------------------------------------------------
# FLOP estimates (closed forms, constant 2 per multiply-add)
# ---------------------------------------------------------------------------


def e2e_ce_flops_per_batch(n_users: int, l_i: float, l_t: float, d: int) -> float:
    """Encoder cost of one end-to-end batch: every interaction occurrence
    runs the encoder, so cost scales with users x interactions."""
    return 2.0 * n_users * l_i * (l_t ** 2 * d + l_t * d ** 2)


def gram_ce_flops_per_batch(n_unique_items: int, l_t: float, d: int) -> float:
    """Encoder cost of one accumulated batch: unique items only."""
    return 2.0 * n_unique_items * (l_t * d ** 2 + l_t ** 2 * d)


# ---------------------------------------------------------------------------
# Speed comparison
# ---------------------------------------------------------------------------


@dataclass
class SpeedReport:
    measured_call_ratio: float   # e2e CE forwards / cached-run CE forwards
    theoretical_r: float         # interactions per unique item
    e2e_wall_ns: int = 0
    gram_wall_ns: int = 0
    cf_phase_ns: int = 0
    ce_phase_ns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def speed_report(e2e_counters: CostCounters, gram_counters: CostCounters,
                 theoretical_r: float, cached: bool = True,
                 cf_phase_ns: int = 0, ce_phase_ns: int = 0) -> SpeedReport:
    """Combine two runs' counters into a comparison.

    In cached mode the measured forward-call ratio must equal the
    theoretical interactions-per-item ratio exactly; any mismatch means
    the counters or the cache are broken, so it raises.
    """
    if gram_counters.ce_forward_calls <= 0:
        raise ValueError("speed_report: cached run performed no CE forwards")
    measured = e2e_counters.ce_forward_calls / gram_counters.ce_forward_calls
    if cached and abs(measured - theoretical_r) > 1e-9 * max(1.0, abs(theoretical_r)):
        raise AssertionError(
            f"cached-mode call ratio {measured!r} != theoretical {theoretical_r!r}")
    return SpeedReport(
        measured_call_ratio=measured,
        theoretical_r=theoretical_r,
        e2e_wall_ns=e2e_counters.wall_clock_ns,
        gram_wall_ns=gram_counters.wall_clock_ns,
        cf_phase_ns=cf_phase_ns,
        ce_phase_ns=ce_phase_ns,
    )
