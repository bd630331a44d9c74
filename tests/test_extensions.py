"""Extension-feature and edge-case tests.

Covers the Section 2 precision modes, the activation pipeline, driver
caching, the dependency tracker, allocator corner cases, and failure
injection on malformed programs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering, _DepTracker
from repro.core.config import TPU_V1
from repro.core.device import TPUDevice
from repro.isa.encoding import InstructionColumns
from repro.isa.instructions import (
    Activate,
    Halt,
    MatrixMultiply,
    ReadHostMemory,
    ReadWeights,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import ScaleEntry, TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import TensorScale, apply_activation
from repro.nn.reference import random_input
from tests.conftest import timing_run
from tests.oracles import PerInstructionRun, ReferenceDepTracker

#: Random tracker traffic: (is_write, key, first row, row count) steps
#: over two or three keys.  Rows 0-15 and counts 0-8 make partial
#: overlaps common; a count of 0 is an empty range.
TRACKER_STEPS = st.integers(2, 3).flatmap(
    lambda keys: st.lists(
        st.tuples(st.booleans(), st.integers(0, keys - 1), st.integers(0, 15), st.integers(0, 8)),
        min_size=1,
        max_size=60,
    )
)


class TestPrecisionModes:
    """Section 2: mixed precision halves throughput; 16x16 quarters it."""

    def test_quarter_speed_on_compute_bound_app(self, workloads):
        driver = TPUDriver()
        model = workloads["cnn0"]
        full = driver.profile(driver.compile(model))
        quarter = driver.profile(
            driver.compile(model, weight_bits=16, activation_bits=16)
        )
        half = driver.profile(driver.compile(model, activation_bits=16))
        # CNN0 is compute-bound, so 4x slower compute shows up directly.
        assert quarter.seconds / full.seconds > 2.5
        assert quarter.seconds > half.seconds

    def test_half_speed_mixed(self, workloads):
        driver = TPUDriver()
        model = workloads["cnn0"]
        full = driver.profile(driver.compile(model))
        half = driver.profile(driver.compile(model, activation_bits=16))
        assert 1.3 < half.seconds / full.seconds < 2.6

    def test_memory_bound_apps_barely_care(self, workloads):
        driver = TPUDriver()
        model = workloads["mlp1"]
        full = driver.profile(driver.compile(model))
        quarter = driver.profile(
            driver.compile(model, weight_bits=16, activation_bits=16)
        )
        # Weight-DRAM-bound: slower MACs hide behind the same stalls.
        assert quarter.seconds / full.seconds < 1.6

    def test_functional_requires_8bit(self, tiny_mlp):
        driver = TPUDriver()
        compiled = driver.compile_functional(tiny_mlp, seed=1)
        del compiled
        with pytest.raises(NotImplementedError):
            Lowering(tiny_mlp, TPU_V1, params=object(), weight_bits=16)  # type: ignore[arg-type]

    def test_bad_widths_rejected(self, tiny_mlp):
        message = r"8 or 16 bits \(Section 2\)"
        with pytest.raises(ValueError, match=message):
            Lowering(tiny_mlp, TPU_V1, weight_bits=12)
        # A lowering-cache hit rejects the width as a miss does.
        TPUDriver().compile(tiny_mlp)
        with pytest.raises(ValueError, match=message):
            TPUDriver().compile(tiny_mlp, weight_bits=12)


class TestActivationLUT:
    def test_cycles_ceil(self):
        """The walk charges a pass ceil(elements / 256 lanes) cycles."""
        passes = [
            (VectorInstruction(kind=VectorKind.UNARY, src_row=0, dst_row=0, rows=0,
                               lanes=5, scale_id=0), 0),
            *(
                (Activate(acc_row=0, ub_row=0, rows=rows, lanes=lanes,
                          function=Activation.RELU, scale_id=0), cycles)
                for rows, lanes, cycles in ((1, 1, 1), (1, 256, 1), (1, 257, 2), (3, 200, 3))
            ),
        ]
        for instr, cycles in passes:
            program = TPUProgram(
                name="one-pass", instructions=(instr, Halt()), tiles={}, scales=(),
                host_buffers={}, batch_size=1,
            )
            assert timing_run(program).counters["activation_cycles"] == cycles, instr

    def test_vector_op_matches_reference_semantics(self):
        """A UNARY vector pass dequantizes its UB codes, applies the
        function and requantizes them into another UB tensor."""
        codes = np.array([[10, -10]], dtype=np.int8)
        program = TPUProgram(
            name="unary",
            instructions=(
                ReadHostMemory(buffer_id=0, ub_row=0, rows=1),
                VectorInstruction(kind=VectorKind.UNARY, src_row=0, dst_row=1, rows=1,
                                  lanes=2, scale_id=0, function=Activation.TANH),
                WriteHostMemory(buffer_id=1, ub_row=1, rows=1),
                Halt(),
            ),
            tiles={},
            scales=(ScaleEntry(input_scale=TensorScale(0.1), output_scale=TensorScale(0.01)),),
            host_buffers={},
            batch_size=1,
            metadata={"tensors": {"x": (0, 1, 2), "y": (1, 1, 2)}, "output_shape": (2,)},
        )
        out = TPUDevice(functional=True).run(program, host_input=codes).output
        expected = np.clip(
            np.rint(apply_activation(codes * 0.1, Activation.TANH) / 0.01), -128, 127
        )
        assert np.array_equal(out, expected.astype(np.int8))
        oracle = PerInstructionRun(TPUDevice(functional=True), program, codes).execute()
        assert out.tobytes() == oracle.output.tobytes()


class TestDriverCaching:
    def test_compile_is_cached(self, tiny_mlp):
        driver = TPUDriver()
        first = driver.compile(tiny_mlp)
        second = driver.compile(tiny_mlp)
        assert first is second

    def test_precision_variants_not_conflated(self, tiny_mlp):
        driver = TPUDriver()
        a = driver.compile(tiny_mlp)
        b = driver.compile(tiny_mlp, weight_bits=16, activation_bits=16)
        assert a is not b

    def test_functional_compiles_keep_their_own_weights(self, tiny_mlp):
        """Two seeds on one driver run as they do on two fresh drivers."""
        x = random_input(tiny_mlp, seed=7)

        def outputs(driver, seed):
            return driver.run(driver.compile_functional(tiny_mlp, seed=seed), x)[0]

        shared = TPUDriver()
        got = [outputs(shared, seed) for seed in (1, 2)]
        want = [outputs(TPUDriver(), seed) for seed in (1, 2)]
        assert not np.array_equal(want[0], want[1])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestDepTracker:
    def test_war_returned_on_overlap(self):
        tracker = _DepTracker()
        t0, war0 = tracker.write("x", 0, 10)
        assert war0 == ()
        t1, war1 = tracker.write("x", 5, 15)
        assert war1 == (t0,)
        assert t1 != t0

    def test_reads_see_live_writers(self):
        tracker = _DepTracker()
        t0, _ = tracker.write("x", 0, 10)
        assert tracker.read("x", 5, 6) == (t0,)
        assert tracker.read("x", 10, 20) == ()

    def test_contained_writes_replace(self):
        tracker = _DepTracker()
        tracker.write("x", 0, 10)
        t1, _ = tracker.write("x", 0, 10)
        assert tracker.read("x", 0, 10) == (t1,)

    def test_empty_write_rejected(self):
        with pytest.raises(ValueError):
            _DepTracker().write("x", 5, 5)

    @settings(max_examples=300, deadline=None)
    @given(TRACKER_STEPS)
    # A partly overwritten block stays live beside its overwriter, and
    # an empty write raises in both trackers without changing either.
    @example([(True, 0, 0, 10), (True, 0, 5, 10), (False, 0, 0, 20), (False, 0, 0, 5),
              (True, 0, 4, 0), (True, 1, 0, 3), (False, 0, 2, 6)])
    def test_matches_the_two_pass_oracle(self, steps):
        tracker, reference = _DepTracker(), ReferenceDepTracker()
        for is_write, key, r0, rows in steps:
            r1 = r0 + rows
            if is_write and rows == 0:
                for each in (tracker, reference):
                    with pytest.raises(ValueError, match="empty write range"):
                        each.write(key, r0, r1)
                continue
            if is_write:
                got, want = tracker.write(key, r0, r1), reference.write(key, r0, r1)
                tokens = got[1]
            else:
                got = tokens = tracker.read(key, r0, r1)
                want = reference.read(key, r0, r1)
            assert got == want, (is_write, key, r0, r1)
            assert type(tokens) is tuple and list(tokens) == sorted(tokens)
            assert tracker._blocks == reference._blocks


class TestFailureInjection:
    def test_matmul_without_fifo_tile(self):
        program = TPUProgram(
            name="bad",
            instructions=(
                MatrixMultiply(ub_row=0, acc_row=0, rows=1, accumulate=False,
                               load_new_tile=True),
                Halt(),
            ),
            tiles={},
            scales=(),
            host_buffers={},
            batch_size=1,
        )
        for functional in (False, True):
            with pytest.raises(RuntimeError, match="empty Weight FIFO"):
                TPUDevice(functional=functional).run(program)

    def test_functional_requires_tile_data(self, tiny_mlp):
        driver = TPUDriver()
        compiled = driver.compile(tiny_mlp)  # timing-only: tiles carry no data
        device = TPUDevice(functional=True)
        with pytest.raises(ValueError, match="no data"):
            device.run(compiled.program, host_input=np.zeros((5, 20), dtype=np.int8))

    def test_read_weights_unknown_tile_in_functional_mode(self):
        program = TPUProgram(
            name="missing-tile",
            instructions=(ReadWeights(tile_id=0), Halt()),
            tiles={},
            scales=(),
            host_buffers={},
            batch_size=1,
        )
        # A fetched tile is looked up only when a matmul shifts it in, so
        # both modes run the fetch alone, with the same timing.
        timing = TPUDevice(functional=False).run(program)
        functional = TPUDevice(functional=True).run(program)
        assert timing.counters["weight_tiles_loaded"] == 1
        assert functional.cycles == timing.cycles
        assert functional.counters == timing.counters
        assert functional.output is None

    @pytest.mark.parametrize("functional", [False, True], ids=["timing", "functional"])
    @pytest.mark.parametrize("instructions, error, message", [
        (
            (ReadWeights(tile_id=0),
             MatrixMultiply(ub_row=0, acc_row=0, rows=1, accumulate=False,
                            load_new_tile=True), Halt()),
            KeyError, "^0$",
        ),
        ((object(), Halt()), TypeError, r"^cannot seal <class 'object'> at index 0$"),
    ], ids=["unknown-tile-shifted-in", "unknown-instruction"])
    def test_malformed_program_raises_in_both_modes(
        self, instructions, error, message, functional
    ):
        """A stream the device cannot run raises in both modes; an object
        that is no instruction is refused before any run, when the
        program is built."""
        with pytest.raises(error, match=message):
            program = TPUProgram(
                name="malformed", instructions=instructions, tiles={}, scales=(),
                host_buffers={}, batch_size=1,
            )
            TPUDevice(functional=functional).run(program)

    def test_columns_refuse_an_unknown_opcode(self):
        """Columns built by hand can hold an opcode no instruction has;
        building them refuses the first one, before a run, a decode or
        an encode can meet it."""
        for opcodes, message in (
            ((0, Opcode.HALT), "opcode 0 at index 0"),
            ((Opcode.NOP, 99, 0, Opcode.HALT), "opcode 99 at index 1"),
        ):
            fields = [np.array(opcodes), *(np.zeros(len(opcodes), dtype=np.int64) for _ in range(5))]
            with pytest.raises(ValueError, match=f"^cannot seal unknown {message}$"):
                InstructionColumns(fields)

    def test_breakdown_survives_trivial_program(self):
        program = TPUProgram(
            name="empty", instructions=(Halt(),), tiles={}, scales=(),
            host_buffers={}, batch_size=1,
        )
        result = TPUDevice().run(program)
        assert result.breakdown.total >= 1.0
        assert result.breakdown.non_matrix == result.breakdown.total
