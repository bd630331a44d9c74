"""Performance counters (the TPU has 106; Section 8 praises having them).

:class:`CounterBank` is a named-counter file with a fixed catalog, and
:class:`CycleBreakdown` is the Table 3 view: rows 1/4/5/6 (array active,
weight-load stall, weight shift, non-matrix) partition total cycles, while
useful/unused MAC fractions subdivide active cycles and RAW/PCIe stalls are
overlapping sub-counters inside non-matrix time.
"""

from __future__ import annotations

from dataclasses import dataclass


#: The counters the simulator maintains.  The real chip exposes 106; we
#: enumerate the ones the paper's analysis actually consumes plus the
#: bookkeeping the compiler and driver use, and reserve the remainder so
#: the bank still has 106 addressable slots.
_NAMED_COUNTERS = (
    "total_cycles",
    "array_active_cycles",
    "weight_stall_cycles",
    "weight_shift_cycles",
    "non_matrix_cycles",
    "raw_stall_cycles",
    "input_stall_cycles",
    "useful_mac_cycles",  # MAC-weighted: sum over active cycles of filled fraction
    "activation_cycles",
    "pooling_cycles",
    "dma_in_cycles",
    "dma_out_cycles",
    "instructions_issued",
    "matmul_instructions",
    "convolve_instructions",
    "activate_instructions",
    "read_weights_instructions",
    "read_host_instructions",
    "write_host_instructions",
    "sync_instructions",
    "nop_instructions",
    "weight_tiles_loaded",
    "weight_bytes_read",
    "ub_bytes_read",
    "ub_bytes_written",
    "acc_rows_written",
    "pcie_bytes_in",
    "pcie_bytes_out",
    "macs_issued",
    "ops_committed",
    "rows_streamed",
    "batches_completed",
)

CATALOG_SIZE = 106


class CounterBank:
    """A fixed catalog of named saturating-free 64-bit counters."""

    def __init__(self) -> None:
        self._values: dict[str, int] = {name: 0 for name in _NAMED_COUNTERS}
        reserved = CATALOG_SIZE - len(_NAMED_COUNTERS)
        for i in range(reserved):
            self._values[f"reserved_{i:02d}"] = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def add(self, name: str, amount: float) -> None:
        if name not in self._values:
            raise KeyError(f"unknown counter {name!r}")
        if amount < 0:
            raise ValueError(f"counters only increment; got {amount} for {name}")
        self._values[name] += amount

    def get(self, name: str) -> float:
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(f"unknown counter {name!r}") from None

    def reset(self) -> None:
        for name in self._values:
            self._values[name] = 0

    def snapshot(self) -> dict[str, float]:
        """All non-zero counters (reserved slots omitted when zero)."""
        return {k: v for k, v in self._values.items() if v or not k.startswith("reserved_")}


@dataclass(frozen=True)
class CycleBreakdown:
    """Table 3's cycle taxonomy for one application run.

    ``active + weight_stall + weight_shift + non_matrix == total`` (the
    paper's rows 1, 4, 5, 6 summing to 100%); ``useful_mac_fraction`` is
    row 2 (peak-normalized), ``raw_stall``/``input_stall`` are rows 7-8.
    """

    total: float
    active: float
    weight_stall: float
    weight_shift: float
    non_matrix: float
    useful_mac_weighted: float  # active cycles weighted by array fill
    raw_stall: float = 0.0
    input_stall: float = 0.0

    def __post_init__(self) -> None:
        parts = self.active + self.weight_stall + self.weight_shift + self.non_matrix
        if self.total <= 0:
            raise ValueError(f"total cycles must be positive, got {self.total}")
        if abs(parts - self.total) > 1e-6 * self.total:
            raise ValueError(
                f"cycle taxonomy must partition total: "
                f"{parts} != {self.total} "
                f"(active={self.active}, weight_stall={self.weight_stall}, "
                f"shift={self.weight_shift}, non_matrix={self.non_matrix})"
            )
        if self.useful_mac_weighted > self.active * (1 + 1e-9):
            raise ValueError("useful MAC-weighted cycles cannot exceed active cycles")

    # -- Table 3 rows, as fractions of total cycles --------------------------
    @property
    def active_fraction(self) -> float:
        return self.active / self.total

    @property
    def useful_mac_fraction(self) -> float:
        """Row 2: fraction of peak MAC-cycles doing useful work."""
        return self.useful_mac_weighted / self.total

    @property
    def unused_mac_fraction(self) -> float:
        """Row 3: active cycles whose MACs held no useful weights."""
        return self.active_fraction - self.useful_mac_fraction

    @property
    def weight_stall_fraction(self) -> float:
        return self.weight_stall / self.total

    @property
    def weight_shift_fraction(self) -> float:
        return self.weight_shift / self.total

    @property
    def non_matrix_fraction(self) -> float:
        return self.non_matrix / self.total

    @property
    def raw_stall_fraction(self) -> float:
        return self.raw_stall / self.total

    @property
    def input_stall_fraction(self) -> float:
        return self.input_stall / self.total
