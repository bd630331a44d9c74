"""Table 2: the benchmarked chips and servers, verbatim from the paper.

These are *published inputs*, not model outputs: die size, process, clock,
TDP, measured idle/busy power, peak throughput, memory bandwidth, on-chip
memory, and the server configurations (dies per server, server TDP and
measured power).  K80 figures are per die with Boost mode disabled, as
benchmarked (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.roofline.model import chip_roofline
from repro.util.units import GB


@dataclass(frozen=True)
class ChipSpec:
    """One die's published characteristics (Table 2, left half)."""

    name: str
    die_mm2: float | None  # the TPU's exact die size is undisclosed (<= half Haswell)
    process_nm: int
    clock_mhz: float
    tdp_w: float
    idle_w: float
    busy_w: float
    peak_tops_8b: float | None  # tera 8-bit ops/s (None: no 8-bit mode benchmarked)
    peak_tflops: float | None  # tera FP ops/s (None for the TPU)
    bandwidth_gbs: float
    onchip_mib: float

    @property
    def peak_ops(self) -> float:
        """Peak ops/s in each platform's benchmarked precision.

        The CPU and GPU run the NN apps in floating point (Section 8's
        AVX2 fallacy explains why); the TPU runs 8-bit.
        """
        if self.peak_tops_8b is not None and self.peak_tflops is None:
            return self.peak_tops_8b * 1e12
        return float(self.peak_tflops) * 1e12

    @property
    def bandwidth(self) -> float:
        return self.bandwidth_gbs * GB

    @property
    def weight_dtype_bytes(self) -> int:
        """Bytes per weight as benchmarked: fp32 for CPU/GPU, int8 TPU."""
        return 1 if self.peak_tflops is None else 4

    @property
    def ridge_ops_per_byte(self) -> float:
        """Roofline knee in MACs per weight byte."""
        return chip_roofline(self).ridge_ops_per_byte


@dataclass(frozen=True)
class ServerSpec:
    """A benchmarked server (Table 2, right half)."""

    name: str
    chip: ChipSpec
    dies: int
    dram_desc: str
    tdp_w: float
    idle_w: float
    busy_w: float
    hosted: bool  # True when the server also contains the host CPUs


HASWELL_CHIP = ChipSpec(
    name="Haswell E5-2699 v3",
    die_mm2=662,
    process_nm=22,
    clock_mhz=2300,
    tdp_w=145,
    idle_w=41,
    busy_w=145,
    peak_tops_8b=2.6,
    peak_tflops=1.3,
    bandwidth_gbs=51,
    onchip_mib=51,
)

K80_CHIP = ChipSpec(
    name="NVIDIA K80 (per die)",
    die_mm2=561,
    process_nm=28,
    clock_mhz=560,  # Boost mode disabled (Section 3); 875 MHz with Boost
    tdp_w=150,
    idle_w=25,
    busy_w=98,
    peak_tops_8b=None,
    peak_tflops=2.8,  # no Boost, single die (8.7 for the dual-die card with Boost)
    bandwidth_gbs=160,  # SECDED + no Boost reduce 240 -> 160
    onchip_mib=8,
)

TPU_CHIP = ChipSpec(
    name="TPU v1",
    die_mm2=None,  # <= half of Haswell's 662 mm2
    process_nm=28,
    clock_mhz=700,
    tdp_w=75,
    idle_w=28,
    busy_w=40,
    peak_tops_8b=92.0,
    peak_tflops=None,
    bandwidth_gbs=34,
    onchip_mib=28,
)

HASWELL_SERVER = ServerSpec(
    name="Haswell server",
    chip=HASWELL_CHIP,
    dies=2,
    dram_desc="256 GiB",
    tdp_w=504,
    idle_w=159,
    busy_w=455,
    hosted=True,
)

K80_SERVER = ServerSpec(
    name="K80 server",
    chip=K80_CHIP,
    dies=8,
    dram_desc="256 GiB (host) + 12 GiB x 8",
    tdp_w=1838,
    idle_w=357,
    busy_w=991,
    hosted=False,
)

TPU_SERVER = ServerSpec(
    name="TPU server",
    chip=TPU_CHIP,
    dies=4,
    dram_desc="256 GiB (host) + 8 GiB x 4",
    tdp_w=861,
    idle_w=290,
    busy_w=384,
    hosted=False,
)

CHIPS: dict[str, ChipSpec] = {
    "cpu": HASWELL_CHIP,
    "gpu": K80_CHIP,
    "tpu": TPU_CHIP,
}

SERVERS: dict[str, ServerSpec] = {
    "cpu": HASWELL_SERVER,
    "gpu": K80_SERVER,
    "tpu": TPU_SERVER,
}
