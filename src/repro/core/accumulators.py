"""The 4 MiB accumulator file: 4096 rows of 256 32-bit lanes.

The matrix unit produces one 256-element partial sum per cycle into a row;
a MatrixMultiply either overwrites a row range (first K-tile of a layer)
or accumulates into it (subsequent K-tiles).  The paper chose 4096 rows =
2 x 2048 so the compiler can double-buffer while staying above the ~1350
ops/byte roofline knee.
"""

from __future__ import annotations

import numpy as np


class AccumulatorFile:
    """Bounds-checked int32 accumulator rows with wraparound semantics."""

    def __init__(self, rows: int, lanes: int) -> None:
        if rows <= 0 or lanes <= 0:
            raise ValueError(f"rows/lanes must be positive, got {rows}x{lanes}")
        self.rows = rows
        self.lanes = lanes
        self._data = np.zeros((rows, lanes), dtype=np.int32)

    def _check(self, row: int, count: int, op: str) -> None:
        if row < 0 or count <= 0:
            raise ValueError(f"{op}: bad row range ({row}, {count})")
        if row + count > self.rows:
            raise MemoryError(
                f"{op}: rows [{row}, {row + count}) exceed accumulator file "
                f"of {self.rows} rows"
            )

    def write(self, row: int, values: np.ndarray, accumulate: bool) -> None:
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != self.lanes:
            raise ValueError(
                f"accumulator writes are (rows, {self.lanes}), got {values.shape}"
            )
        count = values.shape[0]
        self._check(row, count, "write")
        # Hardware accumulators wrap on overflow (int32 two's complement).
        with np.errstate(over="ignore"):
            if accumulate:
                self._data[row : row + count] += values.astype(np.int32)
            else:
                self._data[row : row + count] = values.astype(np.int32)

    def read(self, row: int, count: int) -> np.ndarray:
        self._check(row, count, "read")
        return self._data[row : row + count].copy()
