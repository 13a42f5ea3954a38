"""Order statistics for generation times."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: a tail percentile must leave at least this many samples above it
TAIL_MIN_ABOVE = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, count)`` of the highest nearest-rank
    percentile that still has ``TAIL_MIN_ABOVE`` samples strictly above
    it.  With too few samples for that, the maximum is returned as the
    100th percentile."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    i = n - 1 - TAIL_MIN_ABOVE
    while i >= 0 and sum(1 for x in xs if x > xs[i]) < TAIL_MIN_ABOVE:
        i -= 1
    if i < 0:
        return xs[-1], 100.0, n
    return xs[i], 100.0 * (i + 1) / n, n
