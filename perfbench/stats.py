"""Statistics and metric tables of the benchmark (see README.md).

Kept free of I/O so test_stats.py can check it on known samples.
"""

import math
import re

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Samples a percentile needs beyond it before it is reported as valid.
MIN_TAIL_SAMPLES = 10


def percentile(samples, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100) of `samples`.

    Position (n - 1) * p / 100 between the sorted samples, as numpy's
    default; p = 50 is the median.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_above(n, p):
    """Samples strictly beyond the p-th percentile's position among n."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * p / 100.0)


def summarize(samples, p):
    """(value, sample count, valid) of the p-th percentile.

    A percentile above the median is valid only with at least
    MIN_TAIL_SAMPLES samples beyond it (p90 needs at least 92).
    """
    n = len(samples)
    value = percentile(samples, p)
    valid = p <= 50 or samples_above(n, p) >= MIN_TAIL_SAMPLES
    return value, n, valid

