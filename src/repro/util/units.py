"""Unit constants used throughout the reproduction.

The paper mixes binary units (MiB of SRAM, GiB of DRAM) with decimal units
(GB/s of bandwidth, TOPS).  Keeping both families as named constants avoids
the classic factor-of-1.07 bugs when comparing buffer sizes to bandwidths.
"""

from __future__ import annotations

# Decimal (SI) multipliers -- used for rates: bytes/second, ops/second.
KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000
TERA = 1_000_000_000_000

KB = KILO
MB = MEGA
GB = GIGA

# Binary (IEC) multipliers -- used for capacities: buffers, DRAM.
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024
