"""Order statistics for the benchmark's samples."""

import math


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q%
    of the samples at or below it. Always returns one of the samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]

