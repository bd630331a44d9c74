"""The Matrix Multiply Unit: tile-granular data over the systolic array.

:class:`repro.core.systolic.SystolicArray` establishes (and the tests
verify) that the wavefront produces exactly ``X @ W`` with B pipelined
cycles per instruction.  Running the full 256x256 grid register-by-register
for production-sized programs would be pointlessly slow in Python, so a
functional run moves its data through this tile engine: numpy integer
matmuls over the resident weight plane.

The unit holds data only.  The device's timing walk
(:func:`repro.core.device._walk`) owns every cycle of the matrix path:
``B * speed_factor`` cycles per matmul, where :func:`speed_factor` is 1
for 8bx8b, 2 when either operand is 16 bits, and 4 when both are
(Section 2), and the ``matrix_dim``-cycle shift of each fresh tile,
hidden by the double-buffered weight plane whenever the previous tile's
compute is long enough.
"""

from __future__ import annotations

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


class MatrixUnit:
    """The MXU's resident weight plane and its functional multiply."""

    def __init__(self, config: TPUConfig) -> None:
        self.dim = config.matrix_dim
        self._resident: np.ndarray | None = None

    def install_tile(self, tile: np.ndarray) -> None:
        """Make a tile the active weight plane.

        A tile smaller than the array is placed in the top-left corner;
        the remaining MACs hold zero weights and are the "unused MACs" of
        Table 3 row 3.
        """
        tile = np.asarray(tile)
        if tile.ndim != 2 or tile.shape[0] > self.dim or tile.shape[1] > self.dim:
            raise ValueError(f"tile {tile.shape} exceeds the {self.dim}x{self.dim} array")
        padded = np.zeros((self.dim, self.dim), dtype=np.int16)
        padded[: tile.shape[0], : tile.shape[1]] = tile
        self._resident = padded

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
