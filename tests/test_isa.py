"""Tests for the TPU ISA: instructions, encoding, assembler, programs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.driver import TPUDriver
from repro.isa import encoding
from repro.isa.assembler import assemble, disassemble
from repro.isa.encoding import (
    FIELD_COLUMNS,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    seal,
)
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    InterruptHost,
    MatrixMultiply,
    Nop,
    ReadHostMemory,
    ReadWeights,
    Sync,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    pack_pooling_config,
    unpack_pooling_config,
)
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.isa.program import HostBufferSpec, ScaleEntry, TileSpec, TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import TensorScale
from repro.nn.workloads import WORKLOAD_NAMES, build_workload

SAMPLE_INSTRUCTIONS = [
    ReadHostMemory(buffer_id=3, ub_row=1000, rows=64),
    ReadHostMemory(buffer_id=3, ub_row=1000, rows=64, alt=True),
    WriteHostMemory(buffer_id=1, ub_row=42, rows=7),
    ReadWeights(tile_id=123456),
    MatrixMultiply(ub_row=99, acc_row=2048, rows=200, accumulate=True,
                   load_new_tile=True, convolve=True),
    MatrixMultiply(ub_row=0, acc_row=0, rows=1, accumulate=False,
                   weight_bits=16, activation_bits=16),
    Activate(acc_row=128, ub_row=5000, rows=200, lanes=256,
             function=Activation.RELU, scale_id=77, pool=True),
    VectorInstruction(kind=VectorKind.LSTM_GATE, src_row=0, dst_row=900,
                      rows=64, lanes=512, scale_id=12, aux_id=777),
    VectorInstruction(kind=VectorKind.IM2COL, src_row=1, dst_row=0x800000,
                      rows=1805, lanes=1440, scale_id=3, aux_id=1805),
    Sync(),
    SyncHost(),
    Configure(key=Configure.KEY_CONV, value=pack_pooling_config(3, 2, 19, 19, 160)),
    InterruptHost(),
    DebugTag(tag=9),
    Nop(),
    Halt(),
]


class TestFieldValidation:
    def test_ub_row_range(self):
        with pytest.raises(ValueError):
            MatrixMultiply(ub_row=1 << 24, acc_row=0, rows=1, accumulate=False)

    def test_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            MatrixMultiply(ub_row=0, acc_row=0, rows=0, accumulate=False)

    def test_operand_widths(self):
        with pytest.raises(ValueError):
            MatrixMultiply(ub_row=0, acc_row=0, rows=1, accumulate=False,
                           weight_bits=12)

    def test_activate_lanes_nonzero(self):
        with pytest.raises(ValueError):
            Activate(acc_row=0, ub_row=0, rows=1, lanes=0,
                     function=Activation.NONE, scale_id=0)

    def test_vector_kind_checked(self):
        with pytest.raises(ValueError):
            VectorInstruction(kind=7, src_row=0, dst_row=0, rows=1, lanes=1,
                              scale_id=0)

    def test_scale_id_range(self):
        with pytest.raises(ValueError):
            Activate(acc_row=0, ub_row=0, rows=1, lanes=1,
                     function=Activation.NONE, scale_id=1 << 10)


class TestEncoding:
    @pytest.mark.parametrize("instr", SAMPLE_INSTRUCTIONS, ids=lambda i: type(i).__name__)
    def test_roundtrip(self, instr):
        blob = encode_instruction(instr)
        decoded, size = decode_instruction(blob)
        assert decoded == instr
        assert size == len(blob) == INSTRUCTION_BYTES[Opcode(instr.opcode)]

    def test_matmul_is_twelve_bytes(self):
        instr = MatrixMultiply(ub_row=1, acc_row=2, rows=3, accumulate=False)
        assert len(encode_instruction(instr)) == 12  # the paper's CISC size

    def test_program_roundtrip(self):
        blob = encode_program(SAMPLE_INSTRUCTIONS)
        assert decode_program(blob) == SAMPLE_INSTRUCTIONS

    def test_truncated_blob_rejected(self):
        blob = encode_instruction(SAMPLE_INSTRUCTIONS[0])
        with pytest.raises(ValueError):
            decode_instruction(blob[:4])

    def test_empty_blob_rejected(self):
        with pytest.raises(ValueError):
            decode_instruction(b"")

    @pytest.mark.parametrize("instr, shift", [
        (Activate(acc_row=1, ub_row=2, rows=3, lanes=4, function=Activation.RELU,
                  scale_id=5), 0),
        (VectorInstruction(kind=VectorKind.UNARY, src_row=1, dst_row=2, rows=3,
                           lanes=4, scale_id=5, function=Activation.TANH), 3),
    ], ids=["ACTIVATE", "VECTOR"])
    @pytest.mark.parametrize("code", [4, 5, 6, 7])
    def test_unknown_activation_code_rejected(self, instr, shift, code):
        """Flag byte 1 holds the activation code at bits 0-2 (ACTIVATE) or
        3-5 (VECTOR); only codes 0-3 name a function."""
        blob = bytearray(encode_instruction(instr))
        blob[1] = (blob[1] & ~(0x7 << shift)) | (code << shift)
        name = Opcode(instr.opcode).name
        with pytest.raises(ValueError, match=f"^{name}: unknown activation code {code}$"):
            decode_instruction(bytes(blob))
        with pytest.raises(ValueError, match=f"^{name}: unknown activation code {code}$"):
            decode_program(encode_program(SAMPLE_INSTRUCTIONS) + bytes(blob))

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_binary_decodes_to_the_program(self, name):
        """Each compiled binary decodes back to the program's stream."""
        program = TPUDriver.shared().compile(build_workload(name)).program
        assert decode_program(program.binary()) == list(program.instructions)

    @given(
        ub=st.integers(0, (1 << 24) - 1),
        acc=st.integers(0, (1 << 16) - 1),
        rows=st.integers(1, (1 << 32) - 1),
        accumulate=st.booleans(),
        load=st.booleans(),
        conv=st.booleans(),
    )
    @settings(max_examples=80)
    def test_matmul_roundtrip_property(self, ub, acc, rows, accumulate, load, conv):
        instr = MatrixMultiply(
            ub_row=ub, acc_row=acc, rows=rows, accumulate=accumulate,
            load_new_tile=load, convolve=conv,
        )
        decoded, _size = decode_instruction(encode_instruction(instr))
        assert decoded == instr

    @given(
        window=st.integers(1, 255), stride=st.integers(1, 255),
        h=st.integers(1, 65535), w=st.integers(1, 65535), c=st.integers(1, 65535),
    )
    @settings(max_examples=60)
    def test_pooling_config_roundtrip(self, window, stride, h, w, c):
        packed = pack_pooling_config(window, stride, h, w, c)
        assert unpack_pooling_config(packed) == {
            "window": window, "stride": stride, "height": h, "width": w,
            "channels": c,
        }


class TestAssembler:
    def test_roundtrip_all_samples(self):
        text = disassemble(SAMPLE_INSTRUCTIONS)
        assert assemble(text) == SAMPLE_INSTRUCTIONS

    def test_comments_and_blanks_ignored(self):
        program = assemble("# header\n\nnop\nhalt  # trailing\n")
        assert program == [Nop(), Halt()]

    def test_unknown_mnemonic(self):
        with pytest.raises(ValueError):
            assemble("frobnicate x=1")

    def test_malformed_operand(self):
        with pytest.raises(ValueError):
            assemble("matmul ub_row")


class TestProgram:
    def _program(self):
        return TPUProgram(
            name="demo",
            instructions=tuple(SAMPLE_INSTRUCTIONS),
            tiles={0: TileSpec(0, 16, 16, np.zeros((16, 16), dtype=np.int8))},
            scales=(ScaleEntry(TensorScale(1.0), TensorScale(1.0)),),
            host_buffers={0: HostBufferSpec(0, "in", "in", 100)},
            batch_size=4,
        )

    def test_counts_and_summary(self):
        program = self._program()
        counts = program.instruction_counts()
        assert counts["MATRIX_MULTIPLY"] == 2
        assert "demo" in program.summary()

    def test_binary_matches_encoding(self):
        program = self._program()
        assert program.binary() == encode_program(list(SAMPLE_INSTRUCTIONS))

    def test_tile_spec_validates(self):
        with pytest.raises(ValueError):
            TileSpec(0, 4, 4, np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            TileSpec(0, 0, 4)

    def test_host_buffer_direction(self):
        with pytest.raises(ValueError):
            HostBufferSpec(0, "x", "sideways", 10)

    def test_weight_image_bytes(self):
        assert self._program().weight_image_bytes == 256


class TestSealedColumns:
    """The sealed column form behind ``TPUProgram.instructions``."""

    def test_view_decodes_the_sealed_stream(self):
        columns = seal(SAMPLE_INSTRUCTIONS)
        assert len(columns) == len(SAMPLE_INSTRUCTIONS)
        assert list(columns) == SAMPLE_INSTRUCTIONS
        assert [columns[i] for i in range(len(columns))] == SAMPLE_INSTRUCTIONS
        assert columns[-1] == Halt() and columns[2:4] == tuple(SAMPLE_INSTRUCTIONS[2:4])
        with pytest.raises(IndexError):
            columns[len(columns)]
        assert encoding.encode_columns(columns) == encode_program(SAMPLE_INSTRUCTIONS)

    def test_columns_are_read_only(self):
        columns = seal(SAMPLE_INSTRUCTIONS)
        for name in (*FIELD_COLUMNS, "operand"):
            with pytest.raises(ValueError):
                getattr(columns, name)[0] = 1

    def test_length_counts_and_binary_decode_nothing(self, monkeypatch):
        program = TestProgram()._program()
        monkeypatch.setattr(encoding, "_instruction", None)  # any decode would fail
        assert len(program.instructions) == len(SAMPLE_INSTRUCTIONS)
        assert program.binary() == encode_program(SAMPLE_INSTRUCTIONS)
        assert program.instruction_counts()["MATRIX_MULTIPLY"] == 2
        assert "16 instructions" in program.summary()

    def test_a_stray_object_is_refused_when_sealed(self):
        """An object that is no instruction fails the program's
        construction, named by its type and its first index; encoding it
        raises as it always did."""
        stray = object()
        with pytest.raises(TypeError, match="^cannot seal <class 'object'> at index 1$"):
            TPUProgram(
                name="stray", instructions=(Nop(), stray, Halt(), stray), tiles={},
                scales=(), host_buffers={}, batch_size=1,
            )
        # The first stray in the stream is named, in either order of the
        # objects' ids.
        for strays in (("halt", 1.5), (1.5, "halt")):
            name = type(strays[0]).__name__
            with pytest.raises(TypeError, match=f"^cannot seal <class '{name}'> at index 2$"):
                seal([Nop(), Halt(), *strays])
        with pytest.raises(TypeError, match="^cannot encode <class 'object'>$"):
            encode_program([Nop(), stray, Halt()])

    def test_at_widths_rewrites_only_the_matmul_width_bits(self):
        columns = seal(SAMPLE_INSTRUCTIONS)
        assert columns.at_widths(8, 8) is not columns  # the sample mixes widths
        for wbits, abits in ((8, 8), (8, 16), (16, 8), (16, 16)):
            sibling = columns.at_widths(wbits, abits)
            want = [
                dataclasses.replace(i, weight_bits=wbits, activation_bits=abits)
                if isinstance(i, MatrixMultiply) else i
                for i in SAMPLE_INSTRUCTIONS
            ]
            assert list(sibling) == want
            assert sibling.at_widths(wbits, abits) is sibling
