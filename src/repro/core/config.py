"""TPU architectural parameters (Table 2 and Section 2).

Every parameter that Section 7 scales in the design-space study is a field
here, and :meth:`TPUConfig.scaled` produces derived designs: the paper's
``memory``, ``clock``, ``clock+``, ``matrix`` and ``matrix+`` axes, plus
the TPU' (GDDR5) hypothetical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.roofline.model import tpu_roofline
from repro.util.units import GB, GIB, MIB


@dataclass(frozen=True)
class TPUConfig:
    """Architectural description of a TPU-v1-class device."""

    matrix_dim: int = 256
    clock_hz: float = 700e6
    #: Weight Memory (off-chip DRAM for weights) read bandwidth.  Table 2
    #: credits the TPU with 34 GB/s of memory bandwidth; weights dominate
    #: that traffic, which is why the roofline uses weight bytes.
    weight_bandwidth: float = 34 * GB
    weight_dram_bytes: int = 8 * GIB
    unified_buffer_bytes: int = 24 * MIB
    #: 4 MiB of 32-bit accumulators = 4096 rows of 256 lanes.
    accumulator_rows: int = 4096
    weight_fifo_tiles: int = 4
    #: Effective PCIe Gen3 x16 bandwidth for host DMA.
    pcie_bandwidth: float = 12.5 * GB
    #: Fixed per-batch host/driver cost (instruction stream, descriptors,
    #: doorbells, interrupts).  Calibrated so Table 5's host-interaction
    #: fractions land in the published range.
    host_overhead_s: float = 90e-6
    #: Elements per cycle through the activation/pooling pipeline (the
    #: 256-byte-wide internal paths of Section 2).
    activation_lanes: int = 256

    def __post_init__(self) -> None:
        if self.matrix_dim <= 0 or self.matrix_dim % 2 != 0:
            raise ValueError(f"matrix_dim must be a positive even int, got {self.matrix_dim}")
        for name in (
            "clock_hz",
            "weight_bandwidth",
            "pcie_bandwidth",
            "unified_buffer_bytes",
            "accumulator_rows",
            "weight_fifo_tiles",
            "activation_lanes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    # -- derived quantities -------------------------------------------------
    @property
    def macs(self) -> int:
        """Total multiply-accumulate units (65,536 for the real TPU)."""
        return self.matrix_dim * self.matrix_dim

    @property
    def peak_ops_per_s(self) -> float:
        """Peak throughput counting one MAC as two operations (92 TOPS)."""
        return 2.0 * self.macs * self.clock_hz

    @property
    def tile_bytes(self) -> int:
        """Bytes in one 8-bit weight tile (64 KiB for 256x256)."""
        return self.matrix_dim * self.matrix_dim

    @property
    def accumulator_bytes(self) -> int:
        return self.accumulator_rows * self.matrix_dim * 4

    @property
    def ridge_ops_per_byte(self) -> float:
        """Roofline ridge point in MACs per weight byte (~1350).

        Performance is plotted in ops/s (2 ops per MAC) but intensity in
        MACs per byte, so the knee sits at peak / (2 * bandwidth).
        """
        return tpu_roofline(self).ridge_ops_per_byte

    @property
    def weight_shift_cycles(self) -> int:
        """Cycles to shift one weight tile into the array (256)."""
        return self.matrix_dim

    def tile_load_seconds(self) -> float:
        """Time to stream one weight tile from Weight Memory."""
        return self.tile_bytes / self.weight_bandwidth

    def tile_load_cycles(self) -> float:
        return self.tile_load_seconds() * self.clock_hz

    # -- design-space scaling (Section 7 / Figure 11) -----------------------
    def scaled(
        self,
        memory: float = 1.0,
        clock: float = 1.0,
        matrix: float = 1.0,
        accumulators: float = 1.0,
    ) -> "TPUConfig":
        """A derived design with the given multipliers.

        ``matrix`` scales one dimension of the MXU (so MAC count grows with
        its square); ``accumulators`` scales the accumulator row count, the
        knob the paper couples to ``clock+`` and ``matrix+``.
        """
        new_dim = int(round(self.matrix_dim * matrix))
        if new_dim <= 0:
            raise ValueError(f"matrix scale {matrix} collapses the array")
        return replace(
            self,
            matrix_dim=new_dim,
            clock_hz=self.clock_hz * clock,
            weight_bandwidth=self.weight_bandwidth * memory,
            accumulator_rows=max(int(round(self.accumulator_rows * accumulators)), 1),
        )


#: The deployed 2015 TPU (Table 2).
TPU_V1 = TPUConfig()
