"""The systolic array must be exactly a matrix multiply, cycle by cycle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TPU_V1
from repro.core.matrix_unit import MatrixUnit, speed_factor
from repro.core.systolic import SystolicArray
from repro.isa.program import TileSpec
from tests.conftest import one_tile_program, timing_run

FULL_TILE = TileSpec(0, rows=256, cols=256)


class TestSystolicArray:
    def test_identity_weights_pass_through(self):
        array = SystolicArray(4, 4)
        array.load_weights(np.eye(4, dtype=np.int64))
        x = np.arange(12).reshape(3, 4)
        trace = array.run_matmul(x)
        assert np.array_equal(trace.output, x)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(7)
        array = SystolicArray(6, 5)
        w = rng.integers(-128, 128, size=(6, 5))
        array.load_weights(w)
        x = rng.integers(-128, 128, size=(9, 6))
        trace = array.run_matmul(x)
        assert np.array_equal(trace.output, x @ w)

    def test_cycle_count_formula(self):
        array = SystolicArray(4, 3)
        array.load_weights(np.ones((4, 3), dtype=np.int64))
        trace = array.run_matmul(np.ones((5, 4), dtype=np.int64))
        # B + rows + cols - 2 total; B pipelined steady-state cycles.
        assert trace.cycles == 5 + 4 + 3 - 2
        assert trace.fill_cycles == 3
        assert trace.drain_cycles == 2

    def test_weight_shift_takes_rows_cycles(self):
        array = SystolicArray(8, 8)
        assert array.load_weights(np.zeros((8, 8))) == 8

    def test_double_buffering_protocol(self):
        array = SystolicArray(2, 2)
        array.stage_weights(np.ones((2, 2)))
        assert not array.shift_weight_row()
        with pytest.raises(RuntimeError):
            array.commit_weights()  # not fully shifted yet
        assert array.shift_weight_row()
        array.commit_weights()
        assert np.all(array.weights == 1)

    def test_stage_requires_matching_shape(self):
        with pytest.raises(ValueError):
            SystolicArray(2, 2).stage_weights(np.ones((3, 2)))

    def test_commit_without_stage(self):
        with pytest.raises(RuntimeError):
            SystolicArray(2, 2).commit_weights()

    def test_input_shape_checked(self):
        array = SystolicArray(4, 4)
        array.load_weights(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            array.run_matmul(np.zeros((2, 5)))

    def test_wavefront_is_diagonal(self):
        array = SystolicArray(4, 4)
        grid = array.wavefront(cycle=2, batch=10)
        # Cells with r + c <= 2 are active at cycle 2 (b = 2 - r - c >= 0).
        for r in range(4):
            for c in range(4):
                assert grid[r, c] == (r + c <= 2)

    def test_render_wavefront(self):
        art = SystolicArray(3, 3).render_wavefront(1, batch=5)
        assert "#" in art and "." in art

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        batch=st.integers(1, 10),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, rows, cols, batch, seed):
        rng = np.random.default_rng(seed)
        array = SystolicArray(rows, cols)
        w = rng.integers(-128, 128, size=(rows, cols))
        x = rng.integers(-128, 128, size=(batch, rows))
        array.load_weights(w)
        trace = array.run_matmul(x)
        assert np.array_equal(trace.output, x @ w)


class TestMatrixUnit:
    def test_speed_factors(self):
        assert speed_factor(8, 8) == 1
        assert speed_factor(8, 16) == 2
        assert speed_factor(16, 8) == 2
        assert speed_factor(16, 16) == 4
        with pytest.raises(ValueError):
            speed_factor(8, 32)

    def test_compute_cycles_scale_with_precision(self):
        for bits, cycles in (((8, 8), 100), ((8, 16), 200), ((16, 8), 200), ((16, 16), 400)):
            program = one_tile_program(FULL_TILE, rows=100, weight_bits=bits[0],
                                       activation_bits=bits[1])
            assert timing_run(program).counters["array_active_cycles"] == cycles, bits

    def test_partial_tile_zero_padding(self):
        unit = MatrixUnit(TPU_V1)
        tile = np.ones((3, 5), dtype=np.int8)
        unit.install_tile(tile)
        x = np.full((2, 3), 2, dtype=np.int8)
        out = unit.multiply(x)
        assert out.shape == (2, 256)
        assert np.all(out[:, :5] == 6)
        assert np.all(out[:, 5:] == 0)

    def test_multiply_matches_numpy_full_width(self):
        rng = np.random.default_rng(3)
        unit = MatrixUnit(TPU_V1)
        tile = rng.integers(-128, 128, size=(256, 256)).astype(np.int8)
        unit.install_tile(tile)
        x = rng.integers(-128, 128, size=(17, 256)).astype(np.int8)
        assert np.array_equal(
            unit.multiply(x), x.astype(np.int32) @ tile.astype(np.int32)
        )

    def test_useful_fraction(self):
        """The walk weights active cycles by the tile's share of the array."""
        full = timing_run(one_tile_program(FULL_TILE, rows=10)).counters
        assert full["useful_mac_cycles"] == full["array_active_cycles"] == 10
        half = timing_run(one_tile_program(TileSpec(0, rows=128, cols=256), rows=10)).counters
        assert half["useful_mac_cycles"] == 5.0
        assert half["macs_issued"] == 10 * 128 * 256
        with pytest.raises(ValueError, match="exceeds the 256x256 array"):
            MatrixUnit(TPU_V1).install_tile(np.zeros((257, 1), dtype=np.int8))

    def test_requires_tile_for_functional(self):
        unit = MatrixUnit(TPU_V1)
        with pytest.raises(RuntimeError):
            unit.multiply(np.zeros((1, 4), dtype=np.int8))

    def test_rejects_float_input(self):
        unit = MatrixUnit(TPU_V1)
        unit.install_tile(np.zeros((4, 4), dtype=np.int8))
        with pytest.raises(TypeError):
            unit.multiply(np.zeros((1, 4), dtype=np.float32))
