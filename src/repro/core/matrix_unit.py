"""The Matrix Multiply Unit: tile-granular engine over the systolic array.

:class:`repro.core.systolic.SystolicArray` establishes (and the tests
verify) that the wavefront produces exactly ``X @ W`` with B pipelined
cycles per instruction.  Running the full 256x256 grid register-by-register
for production-sized programs would be pointlessly slow in Python, so the
device uses this tile engine: numpy integer matmuls for values, plus the
cycle model the systolic analysis justified:

* compute occupies ``B * speed_factor`` pipelined cycles per tile, where
  the speed factor is 1 for 8bx8b, 2 when either operand is 16 bits, and
  4 when both are (Section 2);
* shifting a fresh tile into the array takes ``matrix_dim`` cycles,
  hidden by the double-buffered weight plane whenever the previous tile's
  compute is long enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TPUConfig
from repro.isa.instructions import check_operand_widths


def speed_factor(weight_bits: int, activation_bits: int) -> int:
    """Throughput divisor for mixed-precision operands (Section 2)."""
    check_operand_widths(weight_bits, activation_bits)
    if weight_bits == 8 and activation_bits == 8:
        return 1
    if weight_bits == 16 and activation_bits == 16:
        return 4
    return 2


@dataclass(frozen=True)
class TileCompute:
    """Cycle cost of streaming one batch of rows through a resident tile."""

    compute_cycles: int
    fill_drain_cycles: int  # pipeline fill+drain, overlapped across tiles


class MatrixUnit:
    """Functional + timing model of the MXU with double-buffered weights."""

    def __init__(self, config: TPUConfig) -> None:
        self.config = config
        self.dim = config.matrix_dim
        self._resident: np.ndarray | None = None

    # -- weights ---------------------------------------------------------------
    def install_tile(self, tile_id: int, tile: np.ndarray | None) -> int:
        """Make a tile the active weight plane; returns shift-in cycles.

        ``tile`` may be None in timing-only mode.  A tile smaller than the
        array is placed in the top-left corner; the remaining MACs hold
        zero weights and are the "unused MACs" of Table 3 row 3.
        """
        if tile is not None:
            tile = np.asarray(tile)
            if tile.ndim != 2 or tile.shape[0] > self.dim or tile.shape[1] > self.dim:
                raise ValueError(
                    f"tile {tile.shape} exceeds the {self.dim}x{self.dim} array"
                )
            padded = np.zeros((self.dim, self.dim), dtype=np.int16)
            padded[: tile.shape[0], : tile.shape[1]] = tile
            self._resident = padded
        else:
            self._resident = None
        return self.config.weight_shift_cycles

    # -- compute -----------------------------------------------------------------
    def compute_cycles(
        self, rows: int, weight_bits: int = 8, activation_bits: int = 8
    ) -> TileCompute:
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        factor = speed_factor(weight_bits, activation_bits)
        return TileCompute(
            compute_cycles=rows * factor,
            fill_drain_cycles=2 * self.dim - 2,
        )

    def multiply(self, activations: np.ndarray) -> np.ndarray:
        """Functional tile multiply: (B, <=dim) int8/int16 -> (B, dim) int32.

        Inputs narrower than the array are zero-padded, mirroring rows of
        the array whose weights are unused.
        """
        if self._resident is None:
            raise RuntimeError("no weight tile installed (functional mode)")
        x = np.asarray(activations)
        if x.ndim != 2 or x.shape[1] > self.dim:
            raise ValueError(f"activations must be (B, <= {self.dim}), got {x.shape}")
        if x.dtype not in (np.int8, np.int16):
            raise TypeError(f"activations must be int8/int16, got {x.dtype}")
        if x.shape[1] < self.dim:
            padded = np.zeros((x.shape[0], self.dim), dtype=x.dtype)
            padded[:, : x.shape[1]] = x
            x = padded
        return np.matmul(x.astype(np.int32), self._resident.astype(np.int32))

    def useful_fraction(self, tile_rows: int, tile_cols: int) -> float:
        """Fraction of the array's MACs holding useful weights for a tile."""
        if not 0 < tile_rows <= self.dim or not 0 < tile_cols <= self.dim:
            raise ValueError(
                f"tile {tile_rows}x{tile_cols} does not fit a {self.dim}-wide array"
            )
        return (tile_rows * tile_cols) / (self.dim * self.dim)
