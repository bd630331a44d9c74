"""Shared substrate: units, statistics, text tables, and ASCII plots.

These helpers are deliberately dependency-light (numpy only) so every other
subpackage can use them without import cycles.
"""

from repro.util.stats import geometric_mean, weighted_mean
from repro.util.tables import TextTable
from repro.util.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    GIGA,
    KILO,
    MEGA,
    TERA,
)

__all__ = [
    "GB",
    "GIB",
    "KB",
    "KIB",
    "MB",
    "MIB",
    "GIGA",
    "KILO",
    "MEGA",
    "TERA",
    "TextTable",
    "geometric_mean",
    "weighted_mean",
]
