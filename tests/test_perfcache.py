"""The process-wide latency-curve cache: keys, accounting, and identity.

The cache's contract is absolute: it may only return exactly what the
platform would have computed, keyed so that equivalent specs (fresh
instances, scenario round-trips, ``replace(model, batch_size=...)``
variants) share entries.  These tests pin the key stability, the
hit/miss/invalidation bookkeeping, and -- most importantly -- that the
sweep, provisioning, and autoscaler results are identical with the
cache on and off.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro import perfcache
from repro.compiler.allocator import StaticPartitionAllocator
from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering
from repro.core.config import TPU_V1, TPUConfig
from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    AutoscaledFleet,
    ReactivePolicy,
)
from repro.datacenter.provisioning import plan_capacity
from repro.nn.workloads import build_workload
from repro.platforms.cpu import HaswellPlatform
from repro.platforms.gpu import K80Platform
from repro.platforms.tpu import TPUPlatform
from repro.serving.sweep import FleetSpec, serving_sweep
from repro.serving.traffic import poisson_arrivals


@pytest.fixture(scope="module")
def mlp0():
    return build_workload("mlp0")


def _spec(platform, model, **kwargs) -> FleetSpec:
    defaults = dict(replicas=2, policy="adaptive", slo_seconds=7e-3)
    defaults.update(kwargs)
    return FleetSpec(platform=platform, model=model, **defaults)


class TestKeys:
    def test_platform_key_stable_across_instances(self):
        for cls in (TPUPlatform, K80Platform, HaswellPlatform):
            assert perfcache.platform_key(cls()) == perfcache.platform_key(cls())

    def test_platform_keys_distinguish_platforms(self):
        keys = {
            perfcache.platform_key(p)
            for p in (TPUPlatform(), K80Platform(), HaswellPlatform())
        }
        assert len(keys) == 3

    def test_model_key_stable_across_rebuilds(self, mlp0):
        assert perfcache.model_key(mlp0) == perfcache.model_key(build_workload("mlp0"))

    def test_model_key_ignores_batch_size(self, mlp0):
        """Batch is the cache key's third component, not part of the hash."""
        assert perfcache.model_key(mlp0) == perfcache.model_key(
            replace(mlp0, batch_size=7)
        )

    def test_model_key_distinguishes_workloads(self, mlp0):
        assert perfcache.model_key(mlp0) != perfcache.model_key(
            build_workload("lstm0")
        )


class TestAccounting:
    def test_hits_misses_and_entries(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        platform = HaswellPlatform()
        assert cache.stats().lookups == 0
        cache.occupancy_latency(platform, mlp0, 16)
        cache.occupancy_latency(platform, mlp0, 16)
        cache.occupancy_latency(platform, mlp0, 32)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 2, 2)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_reset_counters_keeps_entries(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        platform = HaswellPlatform()
        cache.occupancy_latency(platform, mlp0, 16)
        cache.reset_counters()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 1)
        cache.occupancy_latency(platform, mlp0, 16)
        assert cache.stats().hits == 1

    def test_disabled_cache_stores_nothing(self, mlp0):
        cache = perfcache.PerfCache(enabled=False)
        platform = HaswellPlatform()
        cached = cache.occupancy_latency(platform, mlp0, 16)
        assert cache.stats().lookups == 0
        assert cache.stats().entries == 0
        assert cached == (
            platform.occupancy_seconds(mlp0, 16),
            platform.service_seconds(mlp0, 16),
        )


class TestInvalidation:
    @pytest.fixture()
    def filled(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        lstm0 = build_workload("lstm0")
        for platform in (HaswellPlatform(), K80Platform()):
            for model in (mlp0, lstm0):
                for batch in (8, 16):
                    cache.occupancy_latency(platform, model, batch)
        return cache

    def test_invalidate_all(self, filled):
        assert filled.invalidate() == 8
        assert filled.stats().entries == 0

    def test_invalidate_one_platform(self, filled):
        assert filled.invalidate(platform=HaswellPlatform()) == 4
        assert filled.stats().entries == 4
        assert filled.invalidate(platform=HaswellPlatform()) == 0

    def test_invalidate_by_kind_string(self, filled):
        assert filled.invalidate(platform="gpu") == 4

    def test_invalidate_one_workload(self, filled, mlp0):
        assert filled.invalidate(workload=mlp0) == 4
        assert filled.invalidate(workload="lstm0") == 4
        assert filled.stats().entries == 0

    def test_invalidate_workload_positionally(self, filled, mlp0):
        """A bare first argument names the workload, as on the lowering table."""
        assert filled.invalidate("mlp0") == 4
        assert filled.invalidate(mlp0) == 0
        assert filled.invalidate("lstm0", platform="cpu") == 2
        assert filled.stats().entries == 2

    def test_invalidated_entry_recomputes(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        platform = HaswellPlatform()
        before = cache.occupancy_latency(platform, mlp0, 16)
        cache.invalidate(workload=mlp0)
        cache.reset_counters()
        after = cache.occupancy_latency(platform, mlp0, 16)
        assert cache.stats().misses == 1
        assert after == before


def test_lookups_hash_each_instance_once(monkeypatch):
    """Keys are memoized on the platform and model instances, so five
    lookups -- misses and hits -- hash once per instance, not per lookup."""
    calls = []
    digest = perfcache._digest
    monkeypatch.setattr(
        perfcache, "_digest", lambda payload: calls.append(payload) or digest(payload)
    )
    cache = perfcache.PerfCache(enabled=True)
    platform, model = HaswellPlatform(), build_workload("mlp0")
    for batch in (8, 16, 16, 8, 32):
        cache.occupancy_latency(platform, model, batch)
    assert len(calls) == 2


class TestSameNamedModels:
    """A model that shares mlp0's name but not its layers gets its own
    answers, even from a platform that has already evaluated mlp0."""

    BATCHES = (16, 200)

    @staticmethod
    def _answers(platform, model, batch):
        return (
            platform.device_seconds(model, batch),
            platform.occupancy_seconds(model, batch),
            platform.service_seconds(model, batch),
            perfcache.occupancy_latency(platform, model, batch),
        )

    def test_platform_answers_by_content_not_name(self, mlp0):
        short = replace(mlp0, layers=mlp0.layers[:2])
        fresh = TPUPlatform()
        fresh.driver = TPUDriver()  # shares no compile memo with `warmed`
        with perfcache.disabled():
            expected = {b: self._answers(fresh, short, b) for b in self.BATCHES}
        warmed = TPUPlatform()
        for batch in self.BATCHES:
            assert self._answers(warmed, mlp0, batch) != expected[batch]
        for batch in self.BATCHES:
            assert self._answers(warmed, short, batch) == expected[batch]


class TestCachedEqualsUncached:
    """The cache may not move a single float in any consumer's output."""

    def test_direct_lookup_identity(self, mlp0):
        platform = TPUPlatform()
        for batch in (1, 8, 64, 200):
            cached = perfcache.occupancy_latency(platform, mlp0, batch)
            with perfcache.disabled():
                raw = perfcache.occupancy_latency(platform, mlp0, batch)
            assert cached == raw

    def test_sweep_identity(self, mlp0):
        platform = TPUPlatform()
        kwargs = dict(load_fractions=(0.4, 0.8), n_requests=1500, seed=3)
        warm = serving_sweep(_spec(platform, mlp0), **kwargs)
        perfcache.GLOBAL.reset_counters()
        assert serving_sweep(_spec(platform, mlp0), **kwargs) == warm
        stats = perfcache.GLOBAL.stats()
        assert stats.hits > 0 and stats.misses == 0  # a repeat is all hits
        with perfcache.disabled():
            cold = serving_sweep(_spec(platform, mlp0), **kwargs)
        assert warm == cold

    def test_provisioning_identity(self, mlp0):
        platform = TPUPlatform()
        arrivals = poisson_arrivals(30000.0, 1500, seed=5)
        warm = plan_capacity(_spec(platform, mlp0, router="jsq"), arrivals,
                             max_replicas=8)
        perfcache.GLOBAL.reset_counters()
        assert plan_capacity(_spec(platform, mlp0, router="jsq"), arrivals,
                             max_replicas=8) == warm
        stats = perfcache.GLOBAL.stats()
        assert stats.hits > 0 and stats.misses == 0  # a repeat is all hits
        with perfcache.disabled():
            cold = plan_capacity(_spec(platform, mlp0, router="jsq"), arrivals,
                                 max_replicas=8)
        assert warm == cold

    def test_autoscaler_identity(self, mlp0):
        platform = TPUPlatform()
        arrivals = poisson_arrivals(30000.0, 1500, seed=7)
        config = AutoscaleConfig(
            control_interval_seconds=0.05, spinup_seconds=0.1, max_replicas=8
        )

        def run():
            spec = _spec(platform, mlp0, router="jsq")
            scaled = AutoscaledFleet(
                spec.make_replica, ReactivePolicy(), config,
                replica_rps=spec.capacity_rps() / spec.replicas,
            ).run(arrivals)
            return (
                scaled.peak_replicas,
                scaled.mean_powered,
                scaled.timeline,
                scaled.powered,
                scaled.fleet.responses.tolist(),
            )

        warm = run()
        with perfcache.disabled():
            cold = run()
        assert warm == cold


class TestSweepConvergence:
    """latency.sweep and serving.sweep must share one evaluation path."""

    def test_single_probe_entrypoint(self, mlp0):
        """Table 4 and the serving curve ask one memo: after
        ``table4_rows``, the curve's exact points at Table 4's batches
        are all hits."""
        from repro.latency.sweep import TABLE4_BATCHES, table4_rows

        plats = {"cpu": HaswellPlatform(), "gpu": K80Platform(), "tpu": TPUPlatform()}
        table4_rows(mlp0, plats)
        cache = perfcache.GLOBAL
        cache.reset_counters()
        for kind, batches in TABLE4_BATCHES.items():
            curve = _spec(plats[kind], mlp0).curve
            for batch in batches:
                assert batch in curve.anchors
                curve._exact(batch)
        stats = cache.stats()
        assert stats.hits == 6 and stats.misses == 0
        cache.reset_counters()

    def test_curves_agree_point_for_point(self, mlp0):
        """The serving curve's exact anchors == Table 4's probes.

        Both funnel through :func:`repro.perfcache.occupancy_latency`,
        so at every anchor batch the two consumers must see the exact
        same (occupancy, latency) floats -- on every platform.
        """
        for platform in (TPUPlatform(), K80Platform(), HaswellPlatform()):
            curve = _spec(platform, mlp0).curve
            for batch in curve.anchors:
                assert curve._exact(batch) == perfcache.occupancy_latency(
                    platform, mlp0, batch
                ), f"{platform.kind} diverged at batch {batch}"

    def test_shared_probes_hit_the_global_cache(self, mlp0):
        platform = TPUPlatform()
        cache = perfcache.GLOBAL
        perfcache.occupancy_latency(platform, mlp0, 48)  # ensure the entry exists
        cache.reset_counters()
        curve = _spec(platform, mlp0).curve
        curve._exact(48)
        stats = cache.stats()
        assert stats.hits >= 1 and stats.misses == 0
        cache.reset_counters()


def test_numpy_batch_types_key_identically(mlp0):
    """np.int64 batch sizes (from sweeps over arrays) hit int entries."""
    cache = perfcache.PerfCache(enabled=True)
    platform = HaswellPlatform()
    cache.occupancy_latency(platform, mlp0, 16)
    cache.warm(platform, mlp0, np.array([16, 24]))
    stats = cache.stats()
    assert stats.hits == 1 and stats.entries == 2


# ----------------------------------------------------------------------
# the lowering (emission) cache
# ----------------------------------------------------------------------
class TestLoweringCache:
    """The emission memo: allocator-independent keys, hit/miss
    bookkeeping, and byte-identity of replayed compiles."""

    def test_key_stable_across_instances(self, mlp0):
        assert perfcache.lowering_key(TPU_V1, mlp0) == perfcache.lowering_key(
            TPUConfig(), build_workload("mlp0")
        )

    def test_key_distinguishes_batch_not_precision(self, mlp0):
        """Batch changes the key; the four operand widths share one
        record (test_width_sibling_replays_the_pinned_program in
        tests/test_paper_parity.py pins its replays byte for byte)."""
        base = perfcache.lowering_key(TPU_V1, mlp0)
        assert perfcache.lowering_key(TPU_V1, replace(mlp0, batch_size=7)) != base
        perfcache.GLOBAL_LOWERING.invalidate("mlp0")
        perfcache.GLOBAL_LOWERING.reset_counters()
        for wbits, abits in ((8, 8), (8, 16), (16, 8), (16, 16)):
            TPUDriver().compile(mlp0, weight_bits=wbits, activation_bits=abits)
        stats = perfcache.GLOBAL_LOWERING.stats()
        assert (stats.hits, stats.misses) == (3, 1)

    def test_key_stable_across_processes(self, mlp0):
        """Keys are sha256-based, so fresh interpreters (report --jobs
        workers, CI shards) agree with this process byte for byte."""
        script = (
            "from repro import perfcache\n"
            "from repro.core.config import TPU_V1\n"
            "from repro.nn.workloads import build_workload\n"
            "import sys\n"
            "sys.stdout.write(repr(perfcache.lowering_key(TPU_V1, build_workload('mlp0'))))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(perfcache.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        ).stdout
        assert out == repr(perfcache.lowering_key(TPU_V1, mlp0))

    def test_hit_miss_accounting(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        key = perfcache.lowering_key(TPU_V1, mlp0)
        assert cache.get(key) is None
        lowering = Lowering(mlp0, TPU_V1)
        lowering.lower()
        cache.put(key, lowering.record)
        assert cache.get(key) is lowering.record
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        cache.reset_counters()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 1)

    def test_disabled_cache_stores_and_counts_nothing(self, mlp0):
        cache = perfcache.PerfCache(enabled=False)
        key = perfcache.lowering_key(TPU_V1, mlp0)
        cache.put(key, object())
        assert cache.get(key) is None
        stats = cache.stats()
        assert (stats.lookups, stats.entries) == (0, 0)

    def test_invalidate_by_workload(self, mlp0):
        cache = perfcache.PerfCache(enabled=True)
        cache.put(perfcache.lowering_key(TPU_V1, mlp0), object())
        cache.put(perfcache.lowering_key(TPU_V1, build_workload("lstm0")), object())
        assert cache.invalidate("mlp0") == 1
        assert cache.stats().entries == 1
        assert cache.invalidate() == 1
        assert cache.stats().entries == 0

    def test_invalidate_by_config_drops_exactly_its_records(self):
        """A TPUConfig passed as ``platform=`` keys as the records do,
        and asking about it leaves the key its compiles use intact."""
        a, b = TPUConfig(), replace(TPUConfig(), accumulator_rows=2048)
        cache = perfcache.GLOBAL_LOWERING
        cache.invalidate(platform=a)
        cache.invalidate(platform=b)
        TPUDriver(a).compile(build_workload("mlp1"))
        compiled = TPUDriver(b).compile(build_workload("mlp1"))
        with perfcache.disabled():
            uncached = TPUDriver(b).compile(build_workload("mlp1"))
        assert compiled.program.binary() == uncached.program.binary()
        assert cache.invalidate(platform=a) == 1
        assert cache.invalidate(platform=a) == 0
        assert cache.invalidate(platform=b) == 1

    def test_fresh_drivers_share_the_global_cache(self, mlp0):
        """Two fresh drivers compile once between them -- and the hit
        replays the exact bytes (program and metadata) of the miss."""
        perfcache.GLOBAL_LOWERING.invalidate("mlp0")
        perfcache.GLOBAL_LOWERING.reset_counters()
        a = TPUDriver().compile(mlp0)
        b = TPUDriver().compile(build_workload("mlp0"))
        stats = perfcache.GLOBAL_LOWERING.stats()
        assert stats.misses >= 1 and stats.hits >= 1
        assert a.program.binary() == b.program.binary()
        assert a.program.metadata == b.program.metadata

    def test_static_allocator_driver_hits_default_entries(self, mlp0):
        """The key omits the allocator, so the Table 8 study's static
        partition driver replays emissions the default driver cached --
        while still computing its own allocation metadata."""
        perfcache.GLOBAL_LOWERING.invalidate("mlp0")
        default = TPUDriver().compile(mlp0)
        perfcache.GLOBAL_LOWERING.reset_counters()
        static = TPUDriver(allocator=StaticPartitionAllocator()).compile(
            build_workload("mlp0")
        )
        assert perfcache.GLOBAL_LOWERING.stats().hits == 1
        assert static.program.binary() == default.program.binary()
        assert static.program.metadata["allocator"] != default.program.metadata["allocator"]


@pytest.mark.parametrize(
    "name",
    ["mlp0", "mlp1", "lstm0", "lstm1", "cnn0", "cnn1", "bert_s", "bert_l", "gpt_s"],
)
def test_lowering_cache_replay_byte_identical(name):
    """A cache-hit materialize() must reproduce the uncached compile
    byte for byte at every operand width: program binary and metadata,
    including key order."""
    model = build_workload(name)
    first = Lowering(model, TPU_V1)
    first.lower()
    for wbits, abits in ((8, 8), (8, 16), (16, 8), (16, 16)):
        uncached = Lowering(
            model, TPU_V1, weight_bits=wbits, activation_bits=abits
        ).lower()
        replay = first.record.materialize(None, TPU_V1, wbits, abits)
        label = f"{name} at {wbits}x{abits}"
        assert replay.program.binary() == uncached.program.binary(), label
        assert replay.program.metadata == uncached.program.metadata, label
        assert list(replay.program.metadata) == list(uncached.program.metadata), label
