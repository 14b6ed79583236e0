"""Percentiles with their sample counts.

A percentile is only worth reporting when enough samples lie beyond it; this
benchmark asks for ten, so p90 needs at least 100 samples and p99 1000.
"""

from __future__ import annotations

import math

TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = q / 100.0 * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def supported(n: int, q: float) -> bool:
    """True when at least TAIL_SAMPLES of n samples lie above percentile q."""
    return n * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9


def summary(values, scale: float = 1.0) -> dict:
    """Median and p90 of ``values`` times ``scale``, with the sample count and
    whether p90 has ten samples beyond it."""
    values = list(values)
    return {
        "n": len(values),
        "p50": percentile(values, 50) * scale,
        "p90": percentile(values, 90) * scale,
        "p90_supported": supported(len(values), 90),
    }


def median_or_zero(values) -> float:
    values = list(values)
    return percentile(values, 50) if values else 0.0
