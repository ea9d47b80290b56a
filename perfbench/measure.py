"""Order statistics and ratios used in the benchmark's reports.

Kept free of any import of the package under test, so the arithmetic can
be tested on its own.
"""
from __future__ import annotations

import math
import statistics

# a tail percentile is reported as resolved only when at least this many
# samples lie beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample such that at
    least p percent of the samples are at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    return max(1, math.ceil(p / 100 * n))


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile position."""
    return n - _rank(n, p)


def tail_resolved(n, p):
    """True when the p-th percentile of n samples has enough samples
    beyond it to be reported as a tail latency rather than a maximum."""
    return samples_beyond(n, p) >= MIN_TAIL_SAMPLES


def ratio(part, whole):
    """part / whole, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def hit_ratio(hits, misses):
    return ratio(hits, hits + misses)


def spread(values):
    """Inter-quartile distance as a share of the median, computed the way
    Python's statistics.quantiles(values, n=4) places the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
