"""The compiled artifact: instruction stream plus its companion images.

A :class:`TPUProgram` is what the User Space driver produces when it first
evaluates a model (Section 2): the application binary (instructions), the
weight image (tiles destined for Weight Memory), the requantization scale
table, and descriptors for the host-side input/output buffers.

The instruction stream is held in one form only: the sealed columns of
:class:`repro.isa.encoding.InstructionColumns`.  A program built from
instruction objects (the assembler, :func:`repro.isa.decode_program`,
hand-assembled tests) is sealed on construction, so ``instructions`` is
always a read-only view that decodes on demand, and ``binary()``,
``instruction_counts()`` and the device walk read the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.encoding import InstructionColumns, encode_columns, seal
from repro.isa.opcodes import Opcode
from repro.nn.quantization import TensorScale


@dataclass(frozen=True)
class TileSpec:
    """One weight tile: a <=dim x <=dim int8/int16 block, zero-padded on
    the array.  ``data`` is None for timing-only programs.

    ``dynamic`` marks activation-sourced tiles (a transformer layer's
    K^T/V blocks staged through Weight Memory): they are re-staged per
    example, so the weight path charges their *packed* bytes rather than
    the full padded tile a resident trained weight occupies.
    """

    tile_id: int
    rows: int
    cols: int
    data: np.ndarray | None = None
    dynamic: bool = False

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"tile extents must be positive, got {self.rows}x{self.cols}")
        if self.data is not None and self.data.shape != (self.rows, self.cols):
            raise ValueError(
                f"tile data shape {self.data.shape} != extents ({self.rows}, {self.cols})"
            )


@dataclass(frozen=True)
class ScaleEntry:
    """Requantization scales referenced by Activate/Vector instructions."""

    input_scale: TensorScale
    output_scale: TensorScale
    weight_scale: TensorScale | None = None
    aux_scale: TensorScale | None = None


@dataclass(frozen=True)
class HostBufferSpec:
    """A host-memory buffer the program DMAs against."""

    buffer_id: int
    name: str
    direction: str  # "in" or "out"
    bytes_per_batch: int

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise ValueError(f"direction must be 'in' or 'out', got {self.direction!r}")
        if self.bytes_per_batch < 0:
            raise ValueError("bytes_per_batch must be non-negative")


@dataclass
class TPUProgram:
    """A compiled model, ready for :class:`repro.core.device.TPUDevice`.

    ``instructions`` may be given as any sequence of instruction objects;
    it is sealed into :class:`InstructionColumns` unless it already is
    (as when the compiler builds the program, or ``dataclasses.replace``
    copies one).
    """

    name: str
    instructions: InstructionColumns
    tiles: dict[int, TileSpec]
    scales: tuple[ScaleEntry, ...]
    host_buffers: dict[int, HostBufferSpec]
    batch_size: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.instructions, InstructionColumns):
            self.instructions = seal(self.instructions)
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    # -- inspection -----------------------------------------------------------
    def instruction_counts(self) -> dict[str, int]:
        """Instructions per opcode name, in order of first appearance."""
        opcodes = self.instructions.opcode
        present, first = np.unique(opcodes, return_index=True)
        counts = np.bincount(opcodes)
        return {
            Opcode(int(op)).name: int(counts[op]) for op in present[np.argsort(first)]
        }

    @property
    def weight_image_bytes(self) -> int:
        """Bytes the weight image occupies in Weight Memory (padded tiles
        would be larger; tiles are stored packed and padded on read).
        Dynamic tiles are activation staging areas, not image contents."""
        return sum(
            spec.rows * spec.cols * (1 if spec.data is None or spec.data.dtype == np.int8 else 2)
            for spec in self.tiles.values()
            if not spec.dynamic
        )

    @property
    def input_bytes_per_batch(self) -> int:
        return sum(
            b.bytes_per_batch for b in self.host_buffers.values() if b.direction == "in"
        )

    @property
    def output_bytes_per_batch(self) -> int:
        return sum(
            b.bytes_per_batch for b in self.host_buffers.values() if b.direction == "out"
        )

    def binary(self) -> bytes:
        """The encoded instruction stream (the 'application binary')."""
        return encode_columns(self.instructions)

    def summary(self) -> str:
        counts = self.instruction_counts()
        ops = ", ".join(f"{name}:{n}" for name, n in sorted(counts.items()))
        return (
            f"program {self.name}: {len(self.instructions)} instructions "
            f"({ops}); {len(self.tiles)} weight tiles "
            f"({self.weight_image_bytes / 1e6:.1f} MB image); "
            f"batch {self.batch_size}"
        )
