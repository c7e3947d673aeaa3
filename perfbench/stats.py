"""Order statistics and metric-name rules shared by the benchmark scripts."""

from __future__ import annotations

import math
import re
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``MIN_TAIL`` samples lie above
    the chosen rank, because such a tail is set by a handful of outliers.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < MIN_TAIL:
        raise ValueError(f"p{q:g} of {len(xs)} samples has {max(beyond, 0)} beyond it; "
                         f"at least {MIN_TAIL} are needed")
    return xs[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which ``percentile(values, q)`` is defined."""
    n = MIN_TAIL + 1
    while n - math.ceil(q / 100.0 * n) < MIN_TAIL:
        n += 1
    return n


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: want 1-64 of [A-Za-z0-9_.-], "
                         "starting with a letter or digit")
    return name


def iqr_share(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
