"""Nearest-rank percentiles and how many samples lie beyond them."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    if n <= 0:
        return 0
    return n - max(math.ceil(q / 100.0 * n), 1)
