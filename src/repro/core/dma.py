"""The PCIe Gen3 x16 host interface and its DMA engine.

The TPU is an I/O-bus coprocessor: inputs arrive and results leave over
PCIe, and the host also streams the instruction buffer over the same link.
The timing model is bandwidth plus a fixed per-transfer setup cost; the
per-*batch* driver overhead (user-space driver work, doorbells,
interrupts) lives in :class:`repro.core.config.TPUConfig` and is charged
by the driver, not here.
"""

from __future__ import annotations


class DMAEngine:
    """Models PCIe payload movement between host memory and the UB."""

    #: Per-transfer setup latency (descriptor fetch, TLP overheads).
    SETUP_S = 2e-6

    def __init__(self, bandwidth_bytes_per_s: float) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bytes_per_s}")
        self.bandwidth = bandwidth_bytes_per_s

    def transfer_seconds(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.SETUP_S + nbytes / self.bandwidth
