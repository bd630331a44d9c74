"""Tests for tiling, allocation, and lowering."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro import perfcache
from repro.compiler.allocator import (
    LivenessAllocator,
    Request,
    StaticPartitionAllocator,
    UBOverflowError,
)
from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering, groups_of
from repro.compiler.tiling import tile_grid
from repro.core.config import TPU_V1, TPUConfig
from repro.core.device import TPUDevice
from repro.isa.encoding import FIELD_COLUMNS
from repro.isa.instructions import (
    MatrixMultiply,
    ReadWeights,
    VectorInstruction,
    VectorKind,
)
from repro.nn.graph import Model
from repro.nn.layers import FullyConnected
from repro.nn.workloads import build_workload
from repro.util.units import MIB


def _fc_program(k: int, n: int):
    """The compiled program of one (k, n) fully connected layer."""
    model = Model(f"fc{k}x{n}", (FullyConnected("fc", k, n),), (k,), batch_size=4)
    return TPUDriver().compile(model).program


class TestTiling:
    def test_exact_fit(self):
        assert tile_grid(512, 512, 256) == (2, 2)
        tiles = _fc_program(512, 512).tiles
        assert [(t.rows, t.cols) for t in tiles.values()] == [(256, 256)] * 4

    def test_fragmentation_600(self):
        # Section 7's example: 600x600 tiles into 9 passes on a 256 array
        # but only 4 on a 512 array -- each moving 4x the bytes.
        assert tile_grid(600, 600, 256) == (3, 3)
        assert tile_grid(600, 600, 512) == (2, 2)
        assert TPU_V1.scaled(matrix=2).tile_bytes == 4 * TPU_V1.tile_bytes

    def test_edge_extents(self):
        tiles = _fc_program(600, 600).tiles.values()
        assert {(t.rows, t.cols) for t in tiles} == {(256, 256), (256, 88), (88, 256), (88, 88)}
        assert sum(t.rows * t.cols for t in tiles) == 600 * 600

    def test_n_major_order(self):
        """Each column stripe's K tiles come before the next stripe's, in
        tile-id order and in fetch order."""
        program = _fc_program(600, 600)
        stripe = [(256, 256), (256, 256), (88, 256)]
        edge = [(256, 88), (256, 88), (88, 88)]
        assert [(program.tiles[i].rows, program.tiles[i].cols) for i in range(9)] == (
            stripe + stripe + edge
        )
        fetched = [i.tile_id for i in program.instructions if isinstance(i, ReadWeights)]
        assert fetched == list(range(9))

    def test_utilization(self):
        """The walk counts a tile's share of the array as useful MAC time:
        the 600x600 layer's nine tiles fill 360,000 of 9 x 65,536 MACs."""
        counters = TPUDevice().run(_fc_program(600, 600)).counters
        assert counters["useful_mac_cycles"] == pytest.approx(
            counters["array_active_cycles"] * 600 * 600 / (9 * 256 * 256)
        )

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            tile_grid(0, 5, 256)
        with pytest.raises(ValueError):
            tile_grid(5, 5, 0)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.sampled_from([128, 256, 512]))
    @settings(max_examples=60)
    def test_tiles_cover_matrix_exactly(self, k, n, dim):
        """The last K and N tiles hold the 1..dim rows and columns left over."""
        kt, nt = tile_grid(k, n, dim)
        assert 0 < k - (kt - 1) * dim <= dim
        assert 0 < n - (nt - 1) * dim <= dim


class TestLivenessAllocator:
    def test_reuses_dead_ranges(self):
        alloc = LivenessAllocator().allocate(
            [Request("a", 1000, 0, 1), Request("b", 1000, 2, 3)], 2048
        )
        assert alloc.offsets["a"] == alloc.offsets["b"] == 0
        assert alloc.peak_bytes == 1024  # aligned

    def test_live_overlap_separates(self):
        alloc = LivenessAllocator().allocate(
            [Request("a", 100, 0, 2), Request("b", 100, 1, 3)], 4096
        )
        assert alloc.offsets["a"] != alloc.offsets["b"]

    def test_overflow_raises(self):
        with pytest.raises(UBOverflowError):
            LivenessAllocator().allocate([Request("a", 5000, 0, 1)], 4096)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LivenessAllocator().allocate(
                [Request("a", 10, 0, 1), Request("a", 10, 0, 1)], 4096
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5000),  # nbytes
                st.integers(0, 10),  # start
                st.integers(0, 10),  # extra length
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60)
    def test_no_live_ranges_alias(self, raw):
        requests = [
            Request(f"t{i}", nbytes, start, start + extra)
            for i, (nbytes, start, extra) in enumerate(raw)
        ]
        alloc = LivenessAllocator().allocate(requests, capacity_bytes=1 << 22)
        placed = {
            r.name: (alloc.offsets[r.name], alloc.offsets[r.name] + r.nbytes, r)
            for r in requests
        }
        items = list(placed.values())
        for i, (lo_a, hi_a, a) in enumerate(items):
            for lo_b, hi_b, b in items[i + 1 :]:
                if a.overlaps(b):
                    assert hi_a <= lo_b or hi_b <= lo_a, (a, b)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request("x", 0, 0, 1)
        with pytest.raises(ValueError):
            Request("x", 1, 2, 1)


class TestStaticPartitionAllocator:
    def test_reserves_whole_buffer(self):
        alloc = StaticPartitionAllocator().allocate(
            [Request("a", 100, 0, 1)], 24 * MIB
        )
        assert alloc.peak_bytes == 24 * MIB  # "used its full capacity"

    def test_alternating_banks(self):
        alloc = StaticPartitionAllocator().allocate(
            [Request("a", 100, 0, 1), Request("b", 100, 1, 2)], 4096
        )
        assert (alloc.offsets["a"] < 2048) != (alloc.offsets["b"] < 2048)

    def test_bank_overflow(self):
        with pytest.raises(UBOverflowError):
            StaticPartitionAllocator().allocate([Request("a", 3000, 0, 1)], 4096)


class TestLowering:
    def test_program_structure_mlp(self, tiny_mlp):
        compiled = TPUDriver().compile(tiny_mlp)
        counts = compiled.program.instruction_counts()
        # One matmul + one read_weights per weight tile; each of the three
        # layers (20->40, 40->40, 40->8) is a single tile.
        assert counts["MATRIX_MULTIPLY"] == counts["READ_WEIGHTS"] == 3
        assert counts["ACTIVATE"] == 3  # one per N-stripe per layer
        assert counts["READ_HOST_MEMORY"] == 1
        assert counts["WRITE_HOST_MEMORY"] == 1
        assert counts["HALT"] == 1

    def test_matmul_accumulate_pattern(self):
        model = Model(
            "wide", (FullyConnected("fc", 600, 300),), (600,), batch_size=4
        )
        compiled = TPUDriver().compile(model)
        matmuls = [
            i for i in compiled.program.instructions if isinstance(i, MatrixMultiply)
        ]
        # 600 -> 3 K-tiles, 300 -> 2 stripes: 6 matmuls; the first of each
        # stripe overwrites, the rest accumulate.
        assert [m.accumulate for m in matmuls] == [False, True, True] * 2

    def test_deps_are_aligned(self, tiny_cnn):
        compiled = TPUDriver().compile(tiny_cnn)
        deps = compiled.program.metadata["deps"]
        assert len(deps) == len(compiled.program.instructions)

    def test_deps_sidecar_leaves_the_garbage_collector(self):
        """Sidecar entries are exact tuples of exact int tuples, so the
        collector untracks the whole sidecar: one collection per nesting
        level (sidecar, entry, token tuple)."""
        program = Lowering(build_workload("lstm0"), TPU_V1).lower().program
        deps = program.metadata["deps"]
        for _level in range(3):
            gc.collect()
        assert not gc.is_tracked(deps)
        assert type(deps) is tuple
        for entry in deps:
            assert type(entry) is tuple and len(entry) == 3
            assert all(type(tokens) is tuple for tokens in entry)

    def test_cached_record_columns_leave_the_garbage_collector(self):
        """A cached record holds its stream as numpy columns, which the
        collector never tracks, not as instruction objects."""
        model = build_workload("lstm0")
        TPUDriver().compile(model)
        record = perfcache.GLOBAL_LOWERING.get(perfcache.lowering_key(TPU_V1, model))
        columns = record.instructions
        assert len(columns) == 51_553
        for name in (*FIELD_COLUMNS, "operand"):
            assert not gc.is_tracked(getattr(columns, name)), name

    def test_lstm_emits_gate_ops(self, tiny_lstm):
        compiled = TPUDriver().compile(tiny_lstm)
        gates = [
            i
            for i in compiled.program.instructions
            if isinstance(i, VectorInstruction) and i.kind == VectorKind.LSTM_GATE
        ]
        assert len(gates) == 2 * 5  # two cells x five steps

    def test_conv_emits_im2col_chunks(self, tiny_cnn):
        compiled = TPUDriver().compile(tiny_cnn)
        setups = [
            i
            for i in compiled.program.instructions
            if isinstance(i, VectorInstruction) and i.kind == VectorKind.IM2COL
        ]
        assert len(setups) == 3  # one chunk per conv layer (small rows)

    def test_residual_emitted(self, tiny_cnn):
        compiled = TPUDriver().compile(tiny_cnn)
        adds = [
            i
            for i in compiled.program.instructions
            if isinstance(i, VectorInstruction) and i.kind == VectorKind.RESIDUAL_ADD
        ]
        assert len(adds) == 1

    def test_ub_capacity_respected(self, workloads, driver):
        for name, model in workloads.items():
            compiled = driver.compile(model)
            assert compiled.ub_peak_bytes <= 24 * MIB

    def test_weight_traffic_accounts_padded_tiles(self, tiny_mlp):
        compiled = TPUDriver().compile(tiny_mlp)
        reads = sum(
            1 for i in compiled.program.instructions if isinstance(i, ReadWeights)
        )
        result = TPUDevice().run(compiled.program)
        assert result.counters["weight_bytes_read"] == reads * 256 * 256

    def test_fewer_accumulators_reread_conv_weights(self, workloads):
        # Convolution rows are chunked to half the accumulator file, and
        # each chunk re-reads the layer's weight tiles.
        traffic = {}
        for scale in (0.25, 1.0, 4.0):
            driver = TPUDriver(TPUConfig().scaled(accumulators=scale))
            result = driver.profile(driver.compile(workloads["cnn0"]))
            traffic[scale] = result.counters["weight_bytes_read"]
        assert traffic[0.25] > traffic[1.0] >= traffic[4.0]

    def test_scaled_matrix_dim_rejected_by_lowering(self, tiny_mlp):
        config = TPUConfig().scaled(matrix=2)
        with pytest.raises(NotImplementedError):
            Lowering(tiny_mlp, config).lower()

    def test_groups_helper(self):
        assert groups_of(1) == 1
        assert groups_of(256) == 1
        assert groups_of(257) == 2
