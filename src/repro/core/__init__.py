"""TPU v1 microarchitecture: functional + cycle-approximate simulation.

The package mirrors Figure 1's block diagram.  The block modules hold
and move data; every cycle is computed in one place, the device's timing
walk, from :mod:`repro.core.config`'s parameters and the DMA engine's
transfer time:

* :mod:`repro.core.config` -- every architectural parameter (scalable for
  the Section 7 design-space study);
* :mod:`repro.core.systolic` -- the weight-stationary systolic array at
  cycle granularity (Figure 4), which the tests check against numpy;
* :mod:`repro.core.matrix_unit` -- the 256x256 MXU's resident weight
  plane and functional multiply, and the 8/16-bit speed factor;
* :mod:`repro.core.accumulators` -- the accumulator file's int32 rows;
* :mod:`repro.core.dma` -- the PCIe host interface;
* :mod:`repro.core.counters` -- the performance-counter bank (Table 3);
* :mod:`repro.core.device` -- the 4-stage CISC pipeline tying it
  together: one timing walk over each program, which models the Weight
  FIFO, Weight Memory's bandwidth and every engine's clock, and for a
  functional run one data pass that keeps Unified Buffer tensors as
  per-tensor arrays and reads weight tiles from the program.
"""

from repro.core.accumulators import AccumulatorFile
from repro.core.config import TPUConfig, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.device import ExecutionResult, TPUDevice
from repro.core.matrix_unit import MatrixUnit
from repro.core.systolic import SystolicArray

__all__ = [
    "AccumulatorFile",
    "CounterBank",
    "CycleBreakdown",
    "ExecutionResult",
    "MatrixUnit",
    "SystolicArray",
    "TPUConfig",
    "TPUDevice",
    "TPU_V1",
]
