"""The benchmark's own arithmetic: summaries, percentiles and shape-derived rates.

Pure Python, so the parent process can use it without importing numpy
(numpy must only load in the children, after their thread pins are set).
"""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, most demanding last
_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def supported_percentile(n: int) -> float | None:
    """The highest tail percentile with at least TAIL_SAMPLES samples beyond it.

    With n samples, percentile p leaves n * (1 - p/100) samples above it;
    None when even p90 has fewer than TAIL_SAMPLES beyond it (n < 100).
    """
    best = None
    for p in _PERCENTILES:
        # round() absorbs float error in n * (1 - p/100), e.g. 1000 * 0.01
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summarize(values, unit: str) -> dict:
    """Median plus the highest percentile the sample supports, with the count."""
    values = list(values)
    doc = {"median": median(values), "unit": unit, "n": len(values)}
    p = supported_percentile(len(values))
    if p is not None:
        doc[f"p{p:g}"] = percentile(values, p)
    return doc


def spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; the base must be at least 1."""
    if attempted < 1:
        raise ValueError(f"error rate needs at least one attempt, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def conv_flops(c_in: int, c_out: int, h: int, w: int) -> int:
    """Multiply-adds of one 3x3 same-size convolution, counted as 2 operations."""
    return 2 * c_out * c_in * 9 * h * w


def conv_bytes(c_in: int, c_out: int, h: int, w: int) -> int:
    """float32 bytes of the im2col buffer plus the output, implied by the shapes."""
    return 4 * (c_in * 9 * h * w + c_out * h * w)


def gflops(flops: float, seconds: float) -> float | None:
    """GFLOP/s, or None when no time was spent."""
    if seconds <= 0:
        return None
    return flops / seconds / 1e9


def ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator, or None when the base is zero."""
    if denominator == 0:
        return None
    return numerator / denominator
