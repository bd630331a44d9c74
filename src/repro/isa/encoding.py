"""Binary encoding of TPU instructions, and the sealed column form.

The base format is the paper's 12-byte CISC layout:

====== ======== ==============================================
bytes  field    notes
====== ======== ==============================================
0      opcode
1-2    flags    per-opcode bitfield (little-endian)
3-5    UB addr  3 bytes of Unified Buffer row address
6-8,   acc/len  2 bytes of accumulator address, 4 of length
6-11            (sometimes two dimensions, e.g. rows|lanes)
====== ======== ==============================================

The fused VECTOR op is 16 bytes because it carries a second source
address: destination row (bytes 3-5), source row (6-8), aux id (9-11),
rows (12-13) and lanes (14-15).  ``encode -> decode`` is the identity
on every instruction, which the property tests exercise exhaustively.

Every instruction maps to six integer fields -- ``opcode``, ``flags``,
``ub`` (bytes 3-5), ``acc`` (the accumulator address; VECTOR's source
row), ``length`` (VECTOR's aux id) and ``extent`` (VECTOR's
``rows | lanes << 16``, zero elsewhere) -- and the bytes are those
fields packed.  :func:`seal` stores a whole stream as one numpy column
per field, plus an ``operand`` column: the one number an instruction's
cost depends on (rows moved or streamed, the fetched tile id, or the
``rows * lanes`` elements of an ACTIVATE or VECTOR op).  That is the
form a compiled program keeps: numpy arrays hold no Python objects, so
the garbage collector never visits them.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Sequence
from itertools import starmap

import numpy as np

from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    Instruction,
    InterruptHost,
    MatrixMultiply,
    Nop,
    ReadHostMemory,
    ReadWeights,
    Sync,
    SyncHost,
    VectorInstruction,
    WriteHostMemory,
)
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.nn.layers import Activation

_ACT_CODES = {
    Activation.NONE: 0,
    Activation.RELU: 1,
    Activation.SIGMOID: 2,
    Activation.TANH: 3,
}
_ACT_FROM_CODE = {v: k for k, v in _ACT_CODES.items()}

#: MatrixMultiply flag bits.  The two width bits are the only part of a
#: compiled stream that depends on the operand widths.
MM_ACCUMULATE = 1
MM_LOAD_NEW_TILE = 2
MM_WEIGHT_16 = 4
MM_ACTIVATION_16 = 8
MM_CONVOLVE = 16
MM_WIDTH_BITS = MM_WEIGHT_16 | MM_ACTIVATION_16
#: VECTOR flag bits 0-2 hold the vector kind.
VECTOR_KIND_BITS = 0x7


def width_flags(weight_bits: int, activation_bits: int) -> int:
    """The MatrixMultiply width bits of one (weight, activation) mode."""
    return (MM_WEIGHT_16 if weight_bits == 16 else 0) | (
        MM_ACTIVATION_16 if activation_bits == 16 else 0
    )


# -- instruction <-> fields ---------------------------------------------------
_Fields = tuple[int, int, int, int, int, int]


def _host_fields(instr: ReadHostMemory | WriteHostMemory) -> _Fields:
    return (instr.opcode, int(instr.alt), instr.ub_row, instr.buffer_id, instr.rows, 0)


def _matmul_fields(instr: MatrixMultiply) -> _Fields:
    flags = (
        (MM_ACCUMULATE if instr.accumulate else 0)
        | (MM_LOAD_NEW_TILE if instr.load_new_tile else 0)
        | width_flags(instr.weight_bits, instr.activation_bits)
        | (MM_CONVOLVE if instr.convolve else 0)
    )
    return (instr.opcode, flags, instr.ub_row, instr.acc_row, instr.rows, 0)


def _activate_fields(instr: Activate) -> _Fields:
    flags = _ACT_CODES[instr.function] | (int(instr.pool) << 3) | (instr.scale_id << 4)
    length = instr.rows | (instr.lanes << 16)
    return (instr.opcode, flags, instr.ub_row, instr.acc_row, length, 0)


def _vector_fields(instr: VectorInstruction) -> _Fields:
    flags = instr.kind | (_ACT_CODES[instr.function] << 3) | (instr.scale_id << 6)
    extent = instr.rows | (instr.lanes << 16)
    return (instr.opcode, flags, instr.dst_row, instr.src_row, instr.aux_id, extent)


def _configure_fields(instr: Configure) -> _Fields:
    value = instr.value
    return (
        instr.opcode,
        (value >> 56) & 0xFFFF,
        value & 0xFFFFFF,
        instr.key,
        (value >> 24) & 0xFFFFFFFF,
        0,
    )


def _bare_fields(instr: Instruction) -> _Fields:
    return (instr.opcode, 0, 0, 0, 0, 0)


_FIELDS = {
    ReadHostMemory: _host_fields,
    WriteHostMemory: _host_fields,
    ReadWeights: lambda instr: (instr.opcode, 0, 0, 0, instr.tile_id, 0),
    MatrixMultiply: _matmul_fields,
    Activate: _activate_fields,
    VectorInstruction: _vector_fields,
    Configure: _configure_fields,
    DebugTag: lambda instr: (instr.opcode, 0, 0, 0, instr.tag, 0),
    Sync: _bare_fields,
    SyncHost: _bare_fields,
    InterruptHost: _bare_fields,
    Nop: _bare_fields,
    Halt: _bare_fields,
}


_BARE = {
    Opcode.SYNC: Sync,
    Opcode.SYNC_HOST: SyncHost,
    Opcode.INTERRUPT_HOST: InterruptHost,
    Opcode.NOP: Nop,
    Opcode.HALT: Halt,
}


def _activation(opcode: Opcode, code: int) -> Activation:
    try:
        return _ACT_FROM_CODE[code]
    except KeyError:
        raise ValueError(f"{opcode.name}: unknown activation code {code}") from None


def _instruction(
    opcode: int, flags: int, ub: int, acc: int, length: int, extent: int
) -> Instruction:
    """The instruction whose fields these are (the inverse of ``_FIELDS``)."""
    if opcode == Opcode.MATRIX_MULTIPLY:
        return MatrixMultiply(
            ub_row=ub,
            acc_row=acc,
            rows=length,
            accumulate=bool(flags & MM_ACCUMULATE),
            load_new_tile=bool(flags & MM_LOAD_NEW_TILE),
            weight_bits=16 if flags & MM_WEIGHT_16 else 8,
            activation_bits=16 if flags & MM_ACTIVATION_16 else 8,
            convolve=bool(flags & MM_CONVOLVE),
        )
    if opcode == Opcode.READ_WEIGHTS:
        return ReadWeights(tile_id=length)
    if opcode == Opcode.VECTOR:
        return VectorInstruction(
            kind=flags & VECTOR_KIND_BITS,
            function=_activation(Opcode.VECTOR, (flags >> 3) & 0x7),
            scale_id=flags >> 6,
            dst_row=ub,
            src_row=acc,
            aux_id=length,
            rows=extent & 0xFFFF,
            lanes=extent >> 16,
        )
    if opcode == Opcode.ACTIVATE:
        return Activate(
            acc_row=acc,
            ub_row=ub,
            rows=length & 0xFFFF,
            lanes=length >> 16,
            function=_activation(Opcode.ACTIVATE, flags & 0x7),
            pool=bool(flags & 0x8),
            scale_id=flags >> 4,
        )
    if opcode == Opcode.READ_HOST_MEMORY:
        return ReadHostMemory(buffer_id=acc, ub_row=ub, rows=length, alt=bool(flags & 1))
    if opcode == Opcode.WRITE_HOST_MEMORY:
        return WriteHostMemory(buffer_id=acc, ub_row=ub, rows=length, alt=bool(flags & 1))
    if opcode == Opcode.CONFIGURE:
        return Configure(key=acc, value=ub | (length << 24) | (flags << 56))
    if opcode == Opcode.DEBUG_TAG:
        return DebugTag(tag=length)
    return _BARE[opcode]()


# -- bytes --------------------------------------------------------------------
def _u(value: int, nbytes: int) -> bytes:
    return int(value).to_bytes(nbytes, "little")


def encode_instruction(instr: Instruction) -> bytes:
    """Serialize one instruction to its binary form."""
    fields = _FIELDS.get(type(instr))
    if fields is None:
        raise TypeError(f"cannot encode {type(instr)!r}")
    opcode, flags, ub, acc, length, extent = fields(instr)
    head = bytes([opcode]) + _u(flags, 2) + _u(ub, 3)
    if opcode == Opcode.VECTOR:
        return head + _u(acc, 3) + _u(length, 3) + _u(extent, 4)
    return head + _u(acc, 2) + _u(length, 4)


def _decode_at(blob: bytes, offset: int) -> tuple[Instruction, int]:
    """Decode the instruction at ``offset``, reading only its own bytes."""
    if offset >= len(blob):
        raise ValueError("cannot decode an empty blob")
    opcode = Opcode(blob[offset])
    size = INSTRUCTION_BYTES[opcode]
    if len(blob) - offset < size:
        raise ValueError(f"truncated {opcode.name}: {len(blob) - offset} < {size} bytes")
    head = int.from_bytes(blob[offset + 1 : offset + 6], "little")  # flags, ub
    if opcode is Opcode.VECTOR:
        tail = int.from_bytes(blob[offset + 6 : offset + 16], "little")
        acc, length, extent = tail & 0xFFFFFF, (tail >> 24) & 0xFFFFFF, tail >> 48
    else:
        tail = int.from_bytes(blob[offset + 6 : offset + 12], "little")
        acc, length, extent = tail & 0xFFFF, tail >> 16, 0
    return _instruction(opcode, head & 0xFFFF, head >> 16, acc, length, extent), size


def decode_instruction(blob: bytes) -> tuple[Instruction, int]:
    """Decode one instruction from the head of ``blob``.

    Returns (instruction, bytes consumed).  A blob too short for its
    opcode, or an ACTIVATE/VECTOR activation code outside the four
    known functions, raises ``ValueError``.
    """
    return _decode_at(blob, 0)


def encode_program(instructions: list[Instruction]) -> bytes:
    """Serialize an instruction stream (the 'application binary')."""
    return b"".join(encode_instruction(i) for i in instructions)


def decode_program(blob: bytes) -> list[Instruction]:
    """Decode a whole binary, one instruction at a time at its offset."""
    instructions = []
    offset = 0
    while offset < len(blob):
        instr, size = _decode_at(blob, offset)
        instructions.append(instr)
        offset += size
    return instructions


# -- columns ------------------------------------------------------------------
#: The field columns in encoding order, and their storage types.
FIELD_COLUMNS = ("opcode", "flags", "ub", "acc", "length", "extent")
_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint32, np.uint32, np.uint32)


#: Whether each byte value is an opcode, indexed by the byte.
_KNOWN_OPCODE = np.zeros(256, dtype=bool)
_KNOWN_OPCODE[list(Opcode)] = True


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    column = np.ascontiguousarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class InstructionColumns(Sequence):
    """A sealed instruction stream: one read-only numpy column per field.

    Read as a sequence, it is the decoded view of the stream: ``len()``
    decodes nothing, while indexing and iteration build each instruction
    object on demand and keep none.  The device walk, :func:`encode_columns`
    and :meth:`at_widths` read the columns themselves.

    Every opcode must be one of :class:`~repro.isa.opcodes.Opcode`; the
    first that is not raises ``ValueError`` naming its index and value,
    so no run, decode or encode meets it.

    A stream the compiler sealed also holds its dependency sidecar
    (``deps``) and the sidecar's token count (``deps_tokens``), fixed at
    sealing time.  The count describes that very tuple, so the device
    uses it only while ``program.metadata["deps"] is columns.deps``; any
    other sidecar is checked when the program runs.
    """

    __slots__ = (*FIELD_COLUMNS, "operand", "deps", "deps_tokens")

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        deps: tuple | None = None,
        deps_tokens: int = 0,
    ) -> None:
        for name, dtype, column in zip(FIELD_COLUMNS, _DTYPES, columns):
            setattr(self, name, _frozen(column, dtype))
        unknown = np.flatnonzero(~_KNOWN_OPCODE[self.opcode])
        if unknown.size:
            at = int(unknown[0])
            raise ValueError(f"cannot seal unknown opcode {self.opcode[at]} at index {at}")
        self.operand = _operands(self.opcode, self.length, self.extent)
        if deps is not None and len(deps) != len(self.opcode):
            raise ValueError(
                f"a sidecar of {len(deps)} entries cannot seal {len(self.opcode)} instructions"
            )
        self.deps = deps
        self.deps_tokens = deps_tokens

    @property
    def fields(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in FIELD_COLUMNS)

    def __len__(self) -> int:
        return len(self.opcode)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("instruction index out of range")
        return _instruction(*(column.item(index) for column in self.fields))

    def __iter__(self):
        return starmap(_instruction, zip(*(column.tolist() for column in self.fields)))

    def at_widths(self, weight_bits: int, activation_bits: int) -> "InstructionColumns":
        """The stream with every MatrixMultiply at the given operand widths.

        Returns ``self`` when nothing changes; otherwise a stream that
        shares every column but ``flags`` (and the sealed sidecar), whose
        MatrixMultiply width bits are set in one vectorized pass.
        """
        widths = np.uint16(width_flags(weight_bits, activation_bits))
        flags = np.where(
            self.opcode == Opcode.MATRIX_MULTIPLY,
            (self.flags & ~np.uint16(MM_WIDTH_BITS)) | widths,
            self.flags,
        )
        if np.array_equal(flags, self.flags):
            return self
        sibling = copy.copy(self)
        sibling.flags = _frozen(flags, np.uint16)
        return sibling


def _operands(opcode: np.ndarray, length: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """The ``length`` field, except ``rows * lanes`` for ACTIVATE (packed
    in ``length``) and VECTOR (packed in ``extent``)."""
    operand = length.copy()
    for op, packed in ((Opcode.ACTIVATE, length), (Opcode.VECTOR, extent)):
        rows = opcode == op
        operand[rows] = (packed[rows] & 0xFFFF) * (packed[rows] >> 16)
    operand.flags.writeable = False
    return operand


def seal(
    instructions: Iterable[Instruction],
    deps: tuple | None = None,
    deps_tokens: int = 0,
) -> InstructionColumns:
    """Seal an instruction stream into columns (see :class:`InstructionColumns`).

    The compiler passes its dependency sidecar and token count too.
    Compiled streams repeat the same instruction objects heavily, so the
    fields are computed once per distinct object and gathered by index.
    An object that is no instruction raises ``TypeError`` naming its type
    and its (first) index in the stream.
    """
    instructions = list(instructions)  # keeps every object, so each id() is unique
    ids = np.fromiter(map(id, instructions), dtype=np.uint64, count=len(instructions))
    _, first, which = np.unique(ids, return_index=True, return_inverse=True)
    rows = []
    for index in first.tolist():
        fields = _FIELDS.get(type(instructions[index]))
        if fields is None:
            at = next(i for i, obj in enumerate(instructions) if type(obj) not in _FIELDS)
            raise TypeError(f"cannot seal {type(instructions[at])!r} at index {at}")
        rows.append(fields(instructions[index]))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), len(FIELD_COLUMNS))
    return InstructionColumns([column[which] for column in table.T], deps, deps_tokens)


def encode_columns(columns: InstructionColumns) -> bytes:
    """The binary of a sealed stream, packed from its columns in one pass:
    byte for byte :func:`encode_program` of its decoded view."""
    count = len(columns)
    vector = columns.opcode == Opcode.VECTOR
    acc = columns.acc.astype(np.uint64)
    length = columns.length.astype(np.uint64)
    # Bytes 6-11: the accumulator address and length, or VECTOR's source
    # row and aux id.
    middle = acc | (length << np.where(vector, np.uint64(24), np.uint64(16)))
    out = np.zeros((count, 16), dtype=np.uint8)
    out[:, 0] = columns.opcode
    out[:, 1:3] = columns.flags.astype("<u2").view(np.uint8).reshape(count, 2)
    out[:, 3:6] = columns.ub.astype("<u4").view(np.uint8).reshape(count, 4)[:, :3]
    out[:, 6:12] = middle.astype("<u8").view(np.uint8).reshape(count, 8)[:, :6]
    out[:, 12:16] = columns.extent.astype("<u4").view(np.uint8).reshape(count, 4)
    size = np.where(vector, 16, 12)
    return out[np.arange(16) < size[:, None]].tobytes()
