"""Statistics helpers: the means the paper reports.

The paper summarizes six-app results with a geometric mean ("when you don't
know the mix") and a weighted mean using the deployment mix of Table 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def _check_values(values: Sequence[float], name: str) -> None:
    if not values:
        raise ValueError(f"{name} requires at least one value")


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    data = list(values)
    _check_values(data, "geometric_mean")
    if any(v <= 0 for v in data):
        raise ValueError(f"geometric_mean requires positive values, got {data}")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    """Arithmetic mean of ``values`` weighted by ``weights`` (normalized)."""
    data = list(values)
    wts = list(weights)
    _check_values(data, "weighted_mean")
    if len(data) != len(wts):
        raise ValueError(f"length mismatch: {len(data)} values, {len(wts)} weights")
    total = sum(wts)
    if total <= 0:
        raise ValueError(f"weights must sum to a positive value, got {total}")
    return sum(v * w for v, w in zip(data, wts)) / total
