"""Summary statistics shared by every workload.

Tail latencies follow one rule: the tail is the highest whole percentile,
at most :data:`MAX_TAIL_PCT`, that still has at least :data:`MIN_BEYOND`
samples above it, so a tail is never read off a handful of outliers.
The cap keeps a fifth of the samples beyond the tail of a long run: on a
shared host, a p98 read off the last 16 of 800 requests moved by a third
of its value between runs of the same code, and a p90 by a quarter.
The percentile and the sample count travel with the value.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence, Tuple

MIN_BEYOND = 10
MAX_TAIL_PCT = 80


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most ``MAX_TAIL_PCT``) with at least
    ``MIN_BEYOND`` of ``n`` samples above its position in the sorted
    samples; 50 when even the median has fewer."""
    for p in range(MAX_TAIL_PCT, 50, -1):
        if n - 1 - (n - 1) * p // 100 >= MIN_BEYOND:
            return p
    return 50


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"p50", "tail", "tail_pct", "n"}`` for a list of latencies."""
    pct = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "n": len(values),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def worst_mean(pairs: Iterable[Tuple[str, float]]) -> float:
    """The highest per-key mean of ``(key, value)`` pairs.  For objective
    ratios keyed by solver: a quality loss in one solver is not diluted
    by the solvers that did not lose."""
    groups: Dict[str, list] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    if not groups:
        raise ValueError("worst_mean of no samples")
    return max(statistics.fmean(vs) for vs in groups.values())
