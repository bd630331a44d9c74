"""Tests for the TPU memory system: accumulators, weight memory, DRAM, DMA."""

import numpy as np
import pytest

from repro.core.accumulators import AccumulatorFile
from repro.core.config import TPUConfig, TPU_PRIME, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.dma import DMAEngine
from repro.core.weight_memory import WeightMemory
from repro.util.units import GB, MIB


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
        # GDDR5 moves the ridge from ~1350 to ~250 (Section 7).
        assert TPU_PRIME.ridge_ops_per_byte == pytest.approx(255, rel=0.02)

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

    def test_high_water(self):
        acc = AccumulatorFile(rows=8, lanes=2)
        acc.write(4, np.zeros((2, 2), dtype=np.int32), accumulate=False)
        assert acc.high_water_rows == 6


class TestWeightMemory:
    def test_store_read_accounting(self):
        mem = WeightMemory(capacity_bytes=1 * MIB, bandwidth_bytes_per_s=1 * GB)
        tile = np.zeros((256, 256), dtype=np.int8)
        mem.store_tile(0, tile)
        data, seconds = mem.read_tile(0)
        assert data is tile
        assert seconds == pytest.approx(65536 / 1e9)
        assert mem.bytes_read == 65536

    def test_capacity_enforced(self):
        mem = WeightMemory(capacity_bytes=1000, bandwidth_bytes_per_s=1.0)
        with pytest.raises(MemoryError):
            mem.store_tile(0, np.zeros(2000, dtype=np.int8))

    def test_missing_tile(self):
        mem = WeightMemory(capacity_bytes=1000, bandwidth_bytes_per_s=1.0)
        with pytest.raises(KeyError):
            mem.read_tile(42)

    def test_restore_replaces(self):
        mem = WeightMemory(capacity_bytes=1000, bandwidth_bytes_per_s=1.0)
        mem.store_tile(0, np.zeros(600, dtype=np.int8))
        mem.store_tile(0, np.zeros(600, dtype=np.int8))  # no capacity error
        assert mem.bytes_used == 600


class TestDMA:
    def test_transfer_time_includes_setup(self):
        dma = DMAEngine(10e9)
        assert dma.transfer_seconds(0) == 0.0
        assert dma.transfer_seconds(10_000_000) == pytest.approx(
            DMAEngine.SETUP_S + 1e-3
        )
