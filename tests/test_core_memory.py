"""Tests for the TPU memory system: accumulators, weight memory, DRAM, DMA."""

import dataclasses

import numpy as np
import pytest

from repro.compiler.driver import TPUDriver
from repro.core.accumulators import AccumulatorFile
from repro.core.config import TPUConfig, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.device import TPUDevice
from repro.core.dma import DMAEngine
from repro.isa.program import TileSpec
from repro.perfmodel.tpu_prime import PRIME_MEMORY_FACTOR
from repro.util.units import MIB
from tests.conftest import one_tile_program, timing_run


class TestConfig:
    def test_published_derived_values(self):
        assert TPU_V1.macs == 65536
        assert TPU_V1.peak_ops_per_s == pytest.approx(91.75e12, rel=0.01)
        assert TPU_V1.tile_bytes == 64 * 1024
        assert TPU_V1.ridge_ops_per_byte == pytest.approx(1349, rel=0.01)
        assert TPU_V1.accumulator_bytes == 4 * MIB

    def test_tile_load_time(self):
        # 64 KiB at 34 GB/s is ~1.9 us, ~1350 cycles at 700 MHz.
        assert TPU_V1.tile_load_cycles() == pytest.approx(1349, rel=0.01)

    def test_prime_ridge_matches_paper(self):
        # GDDR5 moves the ridge from ~1350 to ~250 (Section 7): the TPU'
        # the Section 7 study evaluates.
        prime = TPU_V1.scaled(memory=PRIME_MEMORY_FACTOR)
        assert prime.ridge_ops_per_byte == pytest.approx(255, rel=0.02)

    def test_scaled_preserves_invariants(self):
        scaled = TPU_V1.scaled(memory=4, clock=2, matrix=2, accumulators=4)
        assert scaled.weight_bandwidth == TPU_V1.weight_bandwidth * 4
        assert scaled.clock_hz == TPU_V1.clock_hz * 2
        assert scaled.matrix_dim == 512
        assert scaled.accumulator_rows == 16384

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TPUConfig(matrix_dim=255)  # odd
        with pytest.raises(ValueError):
            TPUConfig(clock_hz=0)


class TestCounterBank:
    def test_catalog_size_is_106(self):
        assert len(CounterBank()) == 106  # the paper's counter count

    def test_add_and_snapshot(self):
        bank = CounterBank()
        bank.add("total_cycles", 100)
        assert bank.get("total_cycles") == 100
        assert bank.snapshot()["total_cycles"] == 100

    def test_unknown_counter_rejected(self):
        bank = CounterBank()
        with pytest.raises(KeyError):
            bank.add("bogus", 1)
        with pytest.raises(KeyError):
            bank.get("bogus")

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterBank().add("total_cycles", -1)


class TestCycleBreakdown:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            CycleBreakdown(total=100, active=50, weight_stall=10,
                           weight_shift=10, non_matrix=10, useful_mac_weighted=40)

    def test_fractions(self):
        b = CycleBreakdown(total=100, active=40, weight_stall=30,
                           weight_shift=10, non_matrix=20,
                           useful_mac_weighted=20, raw_stall=5, input_stall=2)
        assert b.active_fraction == pytest.approx(0.4)
        assert b.useful_mac_fraction == pytest.approx(0.2)
        assert b.unused_mac_fraction == pytest.approx(0.2)
        assert (b.active_fraction + b.weight_stall_fraction
                + b.weight_shift_fraction + b.non_matrix_fraction) == pytest.approx(1.0)

    def test_useful_bounded_by_active(self):
        with pytest.raises(ValueError):
            CycleBreakdown(total=10, active=2, weight_stall=4, weight_shift=2,
                           non_matrix=2, useful_mac_weighted=3)


class TestAccumulators:
    def test_overwrite_then_accumulate(self):
        acc = AccumulatorFile(rows=8, lanes=4)
        acc.write(2, np.ones((2, 4), dtype=np.int32), accumulate=False)
        acc.write(2, np.full((2, 4), 5, dtype=np.int32), accumulate=True)
        assert np.all(acc.read(2, 2) == 6)

    def test_wraparound_on_overflow(self):
        acc = AccumulatorFile(rows=1, lanes=1)
        acc.write(0, np.array([[2**31 - 1]], dtype=np.int32), accumulate=False)
        acc.write(0, np.array([[1]], dtype=np.int32), accumulate=True)
        assert acc.read(0, 1)[0, 0] == -(2**31)

    def test_bounds(self):
        acc = AccumulatorFile(rows=4, lanes=2)
        with pytest.raises(MemoryError):
            acc.write(3, np.zeros((2, 2), dtype=np.int32), accumulate=False)
        with pytest.raises(ValueError):
            acc.write(0, np.zeros((1, 3), dtype=np.int32), accumulate=False)


class TestWeightMemory:
    """Weight Memory as the device's timing walk and data pass model it."""

    def test_store_read_accounting(self):
        """A static tile's fetch moves the full padded 64 KiB in
        ``tile_load_cycles``, however small the tile; a dynamic tile moves
        only its packed bytes."""
        for spec, nbytes in (
            (TileSpec(0, rows=256, cols=256), 65536),
            (TileSpec(0, rows=88, cols=88), 65536),
            (TileSpec(0, rows=88, cols=88, dynamic=True), 88 * 88),
        ):
            result = timing_run(one_tile_program(spec))
            assert result.counters["weight_bytes_read"] == nbytes, spec
            assert result.counters["weight_tiles_loaded"] == 1
            # The matmul waits for the fetch and the 256-cycle shift.
            load = TPU_V1.tile_load_cycles() * nbytes / TPU_V1.tile_bytes
            assert result.cycles == pytest.approx(load + TPU_V1.weight_shift_cycles + 1)

    def test_capacity_enforced(self, tiny_mlp):
        """A functional run refuses a weight image larger than Weight Memory."""
        program = TPUDriver().compile_functional(tiny_mlp, seed=1).program
        image = program.weight_image_bytes
        codes = np.zeros((5, 20), dtype=np.int8)
        fits = dataclasses.replace(TPU_V1, weight_dram_bytes=image)
        assert TPUDevice(fits, functional=True).run(program, host_input=codes).output is not None
        small = dataclasses.replace(TPU_V1, weight_dram_bytes=image - 1)
        message = (
            rf"^weight image of {image} B exceeds Weight Memory "
            rf"\(weight_dram_bytes = {image - 1} B\)$"
        )
        with pytest.raises(MemoryError, match=message):
            TPUDevice(small, functional=True).run(program, host_input=codes)

    def test_missing_tile(self):
        """A tile fetched but missing from the program fails when shifted in."""
        tile = TileSpec(0, rows=4, cols=4, data=np.zeros((4, 4), dtype=np.int8))
        program = one_tile_program(tile, fetch=42)
        for functional in (False, True):
            with pytest.raises(KeyError, match="^42$"):
                TPUDevice(functional=functional).run(program)


class TestDMA:
    def test_transfer_time_includes_setup(self):
        dma = DMAEngine(10e9)
        assert dma.transfer_seconds(0) == 0.0
        assert dma.transfer_seconds(10_000_000) == pytest.approx(
            DMAEngine.SETUP_S + 1e-3
        )
