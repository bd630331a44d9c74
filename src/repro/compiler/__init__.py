"""The User Space driver / compiler stack (Section 2).

Translates a :class:`repro.nn.graph.Model` into a :class:`TPUProgram`:
weight quantization and tiling, Unified Buffer allocation (the deployed
static-partition allocator and the improved liveness allocator of
Table 8), instruction scheduling with double buffering, and the host-side
interaction plan (Table 5).
"""

from repro.compiler.allocator import (
    Allocation,
    LivenessAllocator,
    Request,
    StaticPartitionAllocator,
    UBOverflowError,
)
from repro.compiler.driver import CompiledModel, TPUDriver
from repro.compiler.tiling import tile_grid

__all__ = [
    "Allocation",
    "CompiledModel",
    "LivenessAllocator",
    "Request",
    "StaticPartitionAllocator",
    "TPUDriver",
    "UBOverflowError",
    "tile_grid",
]
