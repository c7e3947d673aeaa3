"""Cost accounting: encoder call counters, live-activation peaks, the
encoder's FLOP estimate, and wall-clock phase timers (training and
evaluation).

Memory is measured in live saved-activation *elements*, not bytes, and
excludes parameter/input leaves (both training styles hold those equally).
The accountant plugs into ``autodiff.track_activations``: ops acquire
their saved sizes at node creation and release them as backward consumes
the node, so ``peak`` is a deterministic, allocator-independent proxy for
the activation memory a step keeps alive.
"""

from __future__ import annotations

import contextlib
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


@dataclass
class CostCounters:
    """Per-run counters, one per encoder forward, encoder backward (per
    item row) and CF batch row. ``e2e`` runs one of each encoder pass per
    interaction occurrence. ``gram`` counts in ``ce_forward_calls`` an
    item's first touch in a window and in ``ce_backward_calls`` its
    backpropagation. ``flop_estimate`` adds ``ce_flops`` of the rows each
    encoder graph with grad encodes. A single-step window is
    one graph that re-encodes nothing. A multi-step window's first touch
    runs without grad, and its close encodes each item again, with grad,
    one forward each in ``ce_reencode_calls``: the forwards that ran are
    the two counts' sum."""

    ce_forward_calls: int = 0
    ce_reencode_calls: int = 0
    ce_backward_calls: int = 0
    cf_forward_calls: int = 0
    activation_elements_peak: int = 0
    flop_estimate: float = 0.0
    wall_clock_ns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PhaseTimer:
    """Accumulates wall-clock per named phase (a run times "train" and
    "eval")."""

    totals_ns: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def measure(self, phase: str):
        """Add the wall time of the ``with`` body to *phase*, also when the
        body raises."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.totals_ns[phase] = self.totals_ns.get(phase, 0) + (time.perf_counter_ns() - t0)


# ---------------------------------------------------------------------------
# FLOP estimate (closed form, constant 2 per multiply-add)
# ---------------------------------------------------------------------------


def ce_flops(n_rows: int, l_t: float, d: int) -> float:
    """Encoder cost of encoding ``n_rows`` item rows of mean token length
    ``l_t``: one row is an attention term l_t^2 d and a projection term
    l_t d^2. Joint backprop encodes a row per occurrence, ``gram`` one per
    distinct item."""
    return 2.0 * n_rows * (l_t * d ** 2 + l_t ** 2 * d)
