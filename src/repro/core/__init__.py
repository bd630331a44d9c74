"""TPU v1 microarchitecture: functional + cycle-approximate simulation.

The package mirrors Figure 1's block diagram, one module per block:

* :mod:`repro.core.config` -- every architectural parameter (scalable for
  the Section 7 design-space study);
* :mod:`repro.core.systolic` -- the weight-stationary systolic array at
  cycle granularity (Figure 4);
* :mod:`repro.core.matrix_unit` -- the 256x256 MXU tile engine with
  double-buffered weights and 8/16-bit speed modes;
* :mod:`repro.core.accumulators`, :mod:`repro.core.weight_memory` -- the
  memory system (the device's timing walk models the Weight FIFO, and its
  data pass keeps Unified Buffer tensors as per-tensor arrays);
* :mod:`repro.core.activation_unit` -- nonlinearities and pooling;
* :mod:`repro.core.dma` -- the PCIe host interface;
* :mod:`repro.core.counters` -- the performance-counter bank (Table 3);
* :mod:`repro.core.device` -- the 4-stage CISC pipeline tying it together.
"""

from repro.core.accumulators import AccumulatorFile
from repro.core.activation_unit import ActivationUnit
from repro.core.config import TPUConfig, TPU_V1, TPU_PRIME
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.device import ExecutionResult, TPUDevice
from repro.core.matrix_unit import MatrixUnit
from repro.core.systolic import SystolicArray

__all__ = [
    "AccumulatorFile",
    "ActivationUnit",
    "CounterBank",
    "CycleBreakdown",
    "ExecutionResult",
    "MatrixUnit",
    "SystolicArray",
    "TPUConfig",
    "TPUDevice",
    "TPU_PRIME",
    "TPU_V1",
]
