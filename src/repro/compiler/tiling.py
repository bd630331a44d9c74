"""Weight-matrix tiling onto the (dim x dim) Matrix Multiply Unit.

A (K, N) weight matrix is cut into ceil(K/dim) x ceil(N/dim) tiles.  The
lowering registers them N-major (each column stripe's K tiles in turn,
which accumulate into one accumulator region), and every tile occupies
the full array when loaded: edge tiles are zero-padded, and the device's
timing walk charges a static tile's fetch at the full ``dim * dim``
bytes.  That is the two-dimensional internal-fragmentation effect behind
Section 7's 600x600 example, where a 512x512 unit needs fewer steps but
each step moves four times the bytes.
"""

from __future__ import annotations

import math


def tile_grid(k: int, n: int, dim: int) -> tuple[int, int]:
    """(K-tiles, N-tiles) for a (k, n) matrix on a dim-wide array."""
    if k <= 0 or n <= 0 or dim <= 0:
        raise ValueError(f"dims must be positive, got k={k}, n={n}, dim={dim}")
    return math.ceil(k / dim), math.ceil(n / dim)
