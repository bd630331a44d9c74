"""Instruction dataclasses: the programmer-visible TPU ISA.

Each class mirrors one CISC instruction.  Field widths are constrained to
their encoded sizes (checked in ``__post_init__``) so that any program the
compiler emits is guaranteed to serialize into the binary format of
:mod:`repro.isa.encoding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.isa.opcodes import Opcode
from repro.nn.layers import SOFTMAX_PASSES, Activation, LayerNorm

MAX_UB_ROW = (1 << 24) - 1  # 3-byte Unified Buffer row address
MAX_ACC_ROW = (1 << 16) - 1  # 2-byte accumulator address
MAX_LEN = (1 << 32) - 1  # 4-byte length
MAX_HALF = (1 << 16) - 1  # 2-byte subfields
MAX_SCALE_ID = (1 << 10) - 1  # 10 flag bits for the scale-table index

#: Bytes per Unified Buffer row: one 256-lane group of int8 operands.
ROW_BYTES = 256
#: UB row index at which the systolic-data-setup address space begins;
#: the compiler emits im2col streams there and the device decodes them.
SETUP_BASE = 0x800000
#: Row stride between the two setup banks.
SETUP_BANK_STRIDE = 1 << 22


def _check_field(name: str, value: int, maximum: int) -> None:
    if not 0 <= value <= maximum:
        raise ValueError(f"{name}={value} outside encodable range [0, {maximum}]")


def check_operand_widths(weight_bits: int, activation_bits: int) -> None:
    """Raise unless both operand widths are a Section 2 mode (8 or 16)."""
    if weight_bits not in (8, 16) or activation_bits not in (8, 16):
        raise ValueError(
            f"operand widths must be 8 or 16 bits (Section 2), got "
            f"{weight_bits}w/{activation_bits}a"
        )


@dataclass(frozen=True)
class ReadHostMemory:
    """DMA ``rows`` 256-byte rows from a host buffer into the UB."""

    buffer_id: int
    ub_row: int
    rows: int
    alt: bool = False  # the 'alternate host memory read' variant

    opcode = Opcode.READ_HOST_MEMORY

    def __post_init__(self) -> None:
        _check_field("buffer_id", self.buffer_id, MAX_ACC_ROW)
        _check_field("ub_row", self.ub_row, MAX_UB_ROW)
        _check_field("rows", self.rows, MAX_LEN)


@dataclass(frozen=True)
class WriteHostMemory:
    """DMA ``rows`` 256-byte rows from the UB to a host buffer."""

    buffer_id: int
    ub_row: int
    rows: int
    alt: bool = False

    opcode = Opcode.WRITE_HOST_MEMORY

    def __post_init__(self) -> None:
        _check_field("buffer_id", self.buffer_id, MAX_ACC_ROW)
        _check_field("ub_row", self.ub_row, MAX_UB_ROW)
        _check_field("rows", self.rows, MAX_LEN)


@dataclass(frozen=True)
class ReadWeights:
    """Issue a decoupled fetch of one weight tile into the Weight FIFO."""

    tile_id: int

    opcode = Opcode.READ_WEIGHTS

    def __post_init__(self) -> None:
        _check_field("tile_id", self.tile_id, MAX_LEN)


@dataclass(frozen=True)
class MatrixMultiply:
    """Stream ``rows`` UB rows through the resident weight tile.

    The paper's 12-byte CISC instruction: a B x 256 input, multiplied by
    the 256 x 256 resident tile, producing B x 256 partial sums into the
    accumulators over B pipelined cycles.  ``load_new_tile`` shifts the
    next Weight FIFO tile into the array first (256 cycles, normally
    hidden by the double-buffered weight plane).  ``convolve`` marks the
    convolution variant; operand widths select the half/quarter speed
    modes of Section 2.
    """

    ub_row: int
    acc_row: int
    rows: int
    accumulate: bool
    load_new_tile: bool = False
    weight_bits: int = 8
    activation_bits: int = 8
    convolve: bool = False

    opcode = Opcode.MATRIX_MULTIPLY

    def __post_init__(self) -> None:
        _check_field("ub_row", self.ub_row, MAX_UB_ROW)
        _check_field("acc_row", self.acc_row, MAX_ACC_ROW)
        _check_field("rows", self.rows, MAX_LEN)
        if self.rows == 0:
            raise ValueError("MatrixMultiply must stream at least one row")
        check_operand_widths(self.weight_bits, self.activation_bits)


@dataclass(frozen=True)
class Activate:
    """Apply a nonlinearity to accumulator rows, writing codes to the UB.

    ``lanes`` bounds the valid output lanes (the rest are zeroed);
    ``scale_id`` indexes the program's requantization scale table; with
    ``pool`` set, the configured pooling runs on the dedicated hardware
    behind the nonlinear function logic.
    """

    acc_row: int
    ub_row: int
    rows: int
    lanes: int
    function: Activation
    scale_id: int
    pool: bool = False

    opcode = Opcode.ACTIVATE

    def __post_init__(self) -> None:
        _check_field("acc_row", self.acc_row, MAX_ACC_ROW)
        _check_field("ub_row", self.ub_row, MAX_UB_ROW)
        _check_field("rows", self.rows, MAX_HALF)
        _check_field("lanes", self.lanes, MAX_HALF)
        _check_field("scale_id", self.scale_id, MAX_SCALE_ID)
        if self.rows == 0 or self.lanes == 0:
            raise ValueError("Activate needs rows >= 1 and lanes >= 1")


class VectorKind:
    """Fused vector-path operations (patent [Tho15] territory).

    ``SOFTMAX`` and ``LAYER_NORM`` are the transformer extensions: fused
    row-wise reductions (max/sum or mean/variance) plus the element-wise
    follow-up, costed as multiple passes over the tensor.  The device
    executes them on the timing path only -- the functional int8 contract
    covers the Table 1 kinds.
    """

    UNARY = 0  # UB -> UB element-wise nonlinearity (or copy)
    LSTM_GATE = 1  # gates (acc) + cell state (scratch) -> hidden codes (UB)
    RESIDUAL_ADD = 2  # UB + UB -> UB, requantized
    POOL = 3  # UB -> UB pooling using the configured geometry
    IM2COL = 4  # UB image -> UB matrix rows using the conv geometry
    SOFTMAX = 5  # UB -> UB row-wise softmax (max, exp, sum, divide)
    LAYER_NORM = 6  # UB -> UB row-wise layer norm (mean, var, affine)

    ALL = (UNARY, LSTM_GATE, RESIDUAL_ADD, POOL, IM2COL, SOFTMAX, LAYER_NORM)

    #: Vector-pipeline passes over (rows x lanes) each kind costs.  The
    #: transformer entries reference the canonical counts in
    #: :mod:`repro.nn.layers` so the device timing and the analytic
    #: layer costs cannot drift apart.
    PASSES = {
        UNARY: 1,
        LSTM_GATE: 9,  # 3 sigmoid, 2 tanh, 3 mul, 1 add
        RESIDUAL_ADD: 2,
        POOL: 1,  # scaled by window^2 via the pooling configuration
        IM2COL: 1,
        SOFTMAX: SOFTMAX_PASSES,
        LAYER_NORM: LayerNorm.PASSES,
    }


@dataclass(frozen=True)
class VectorInstruction:
    """A 16-byte fused element-wise operation in the vector path.

    * ``UNARY``: read (rows x lanes) codes at ``src_row``, apply
      ``function``, write to ``dst_row``.
    * ``LSTM_GATE``: read 4 gate groups of ``lanes`` lanes starting at
      accumulator row ``src_row`` (group g at ``src_row + g*rows``),
      update the float cell-state scratch ``aux_id``, and write hidden
      codes to ``dst_row``.
    * ``RESIDUAL_ADD``: add the codes at ``aux_id`` (a UB row) into
      ``src_row`` and write to ``dst_row``.
    * ``POOL``: pool the image at ``src_row`` into ``dst_row`` using the
      geometry set by Configure(KEY_POOLING).
    * ``IM2COL``: reformat the image at ``src_row`` into matmul input
      rows at ``dst_row`` using the Configure(KEY_CONV) geometry; this is
      the patch-streaming the convolution hardware performs.
    """

    kind: int
    src_row: int
    dst_row: int
    rows: int
    lanes: int
    scale_id: int
    function: Activation = Activation.NONE
    aux_id: int = 0

    opcode = Opcode.VECTOR

    def __post_init__(self) -> None:
        if self.kind not in VectorKind.ALL:
            raise ValueError(f"unknown vector kind {self.kind}")
        _check_field("src_row", self.src_row, MAX_UB_ROW)
        _check_field("dst_row", self.dst_row, MAX_UB_ROW)
        _check_field("rows", self.rows, MAX_HALF)
        _check_field("lanes", self.lanes, MAX_HALF)
        _check_field("scale_id", self.scale_id, MAX_SCALE_ID)
        _check_field("aux_id", self.aux_id, MAX_UB_ROW)


@dataclass(frozen=True)
class Sync:
    """Pipeline barrier: the 'delay slot' before reading fresh UB data."""

    opcode = Opcode.SYNC


@dataclass(frozen=True)
class SyncHost:
    """The second synchronization flavour: wait for host DMA to settle."""

    opcode = Opcode.SYNC_HOST


@dataclass(frozen=True)
class Configure:
    """Set device state; key selects the register (pooling shape, modes)."""

    key: int
    value: int

    opcode = Opcode.CONFIGURE

    KEY_POOLING = 1
    KEY_MODE = 2
    KEY_CONV = 3

    def __post_init__(self) -> None:
        _check_field("key", self.key, MAX_HALF)
        _check_field("value", self.value, (1 << 72) - 1)


@dataclass(frozen=True)
class InterruptHost:
    opcode = Opcode.INTERRUPT_HOST


@dataclass(frozen=True)
class DebugTag:
    tag: int

    opcode = Opcode.DEBUG_TAG

    def __post_init__(self) -> None:
        _check_field("tag", self.tag, MAX_LEN)


@dataclass(frozen=True)
class Nop:
    opcode = Opcode.NOP


@dataclass(frozen=True)
class Halt:
    opcode = Opcode.HALT


Instruction = Union[
    ReadHostMemory,
    WriteHostMemory,
    ReadWeights,
    MatrixMultiply,
    Activate,
    VectorInstruction,
    Sync,
    SyncHost,
    Configure,
    InterruptHost,
    DebugTag,
    Nop,
    Halt,
]


def pack_pooling_config(window: int, stride: int, height: int, width: int, channels: int) -> int:
    """Pack pooling geometry into a Configure value."""
    for name, val, bits in (
        ("window", window, 8),
        ("stride", stride, 8),
        ("height", height, 16),
        ("width", width, 16),
        ("channels", channels, 16),
    ):
        if not 0 < val < (1 << bits):
            raise ValueError(f"pooling {name}={val} outside (0, {1 << bits})")
    return (
        window
        | (stride << 8)
        | (height << 16)
        | (width << 32)
        | (channels << 48)
    )


def unpack_pooling_config(value: int) -> dict[str, int]:
    return {
        "window": value & 0xFF,
        "stride": (value >> 8) & 0xFF,
        "height": (value >> 16) & 0xFFFF,
        "width": (value >> 32) & 0xFFFF,
        "channels": (value >> 48) & 0xFFFF,
    }
