"""Fleet serving simulator tests: batchers, routers, traffic, sweeps."""

import gc
import json
import math
import os
import subprocess
import sys
import weakref
from collections import Counter, deque

import numpy as np
import pytest

import repro
from repro import obs
from repro.api import spec
from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    AutoscaledFleet,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    StaticPolicy,
)
from repro.serving.batcher import (
    Batcher,
    FixedBatcher,
    SLOAdaptiveBatcher,
    TimeoutBatcher,
    make_batcher,
)
from repro.serving.engine import (
    ConstantCurve,
    LatencyCurve,
    run_closed_loop,
    summarize,
)
from repro.serving.fleet import (
    ROUTERS,
    Fleet,
    FleetSim,
    PlatformCurve,
    Replica,
    _PollTimer,
)
from repro.serving.sweep import (
    FleetSpec,
    max_throughput_under_slo,
    run_point,
    serving_sweep,
)
from repro.serving.traffic import (
    diurnal_arrivals,
    load_trace,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)
from tests import oracles

SERVICE = 2e-3  # 2 ms per batch, any size


def single_replica(batcher, occupancy=SERVICE, latency=None):
    return Fleet([Replica(ConstantCurve(occupancy, latency), batcher)])


def withhold_batch_scan(patch):
    """Route round-robin fixed, timeout and SLO-adaptive fleets through
    the per-arrival event loop (``oracles.no_batch_scan``); returns the
    sims it answered."""
    answered = []

    def no_batch_scan(sim):
        answered.append(sim)
        return oracles.no_batch_scan(sim)

    patch.setattr(FleetSim, "_scan_applies", no_batch_scan)
    return answered


def assert_same_run(a, b):
    """Bit-identical fleet results, accounting and busy timelines."""
    assert np.array_equal(a.responses, b.responses)
    assert a.served_per_replica == b.served_per_replica
    assert a.batches_per_replica == b.batches_per_replica
    assert a.busy_intervals == b.busy_intervals
    assert a.horizon == b.horizon
    assert a.busy_time == b.busy_time


class TestEventLoop:
    """``FleetSim.schedule``, on the heap a run merges its arrivals into."""

    @staticmethod
    def _sim():
        return FleetSim([Replica(ConstantCurve(SERVICE), FixedBatcher(4))], "jsq", np.array([5.0]))

    def test_orders_by_time_then_insertion(self):
        seen = []
        sim = self._sim()
        sim.schedule(2.0, lambda t: seen.append("late"))
        sim.schedule(1.0, lambda t: seen.append("a"))
        sim.schedule(1.0, lambda t: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "late"]

    def test_rejects_past_events(self):
        sim = self._sim()
        sim.schedule(1.0, lambda t: sim.schedule(0.5, lambda _t: None))
        with pytest.raises(ValueError, match="past"):
            sim.run()


class TestClosedFormParity:
    """A one-replica fixed-batch fleet against hand-computed responses."""

    def test_deterministic_uniform_load(self):
        # Requests every 1 ms, batch 4, 2 ms service: batch k collects
        # until arrival 4k ms, runs 2 ms; first request waits 3+2 ms.
        fleet = single_replica(FixedBatcher(4))
        result = fleet.run(uniform_arrivals(1000.0, 8))
        assert result.responses[0] == pytest.approx(5e-3)
        assert result.responses[3] == pytest.approx(2e-3)


class TestBatchers:
    def test_timeout_fires_on_partial_batch(self):
        # Load far too low to fill batch 16: every batch is partial and
        # launches exactly at the timeout.
        timeout = 5e-3
        fleet = single_replica(TimeoutBatcher(16, timeout))
        result = fleet.run(poisson_arrivals(100.0, 2000, seed=1))
        stats = result.stats(warmup_fraction=0.0)
        assert stats.mean_batch < 16
        assert stats.p99_seconds <= timeout + SERVICE + 1e-9
        # Oldest request in each batch waits the full timeout.
        assert np.max(result.responses) == pytest.approx(timeout + SERVICE, rel=1e-9)

    def test_timeout_zero_serves_immediately(self):
        fleet = single_replica(TimeoutBatcher(16, 0.0))
        result = fleet.run(poisson_arrivals(50.0, 500, seed=2))
        assert result.stats(warmup_fraction=0.0).p99_seconds <= 2 * SERVICE + 1e-9

    def test_slo_adaptive_never_misses_at_low_load(self):
        slo = 7e-3
        curve = ConstantCurve(SERVICE)
        fleet = Fleet([Replica(curve, SLOAdaptiveBatcher(slo, curve))])
        result = fleet.run(poisson_arrivals(200.0, 3000, seed=4))
        assert float(np.max(result.responses)) <= slo + 1e-9

    def test_slo_adaptive_batches_grow_with_load(self):
        slo = 7e-3
        curve = ConstantCurve(SERVICE)

        def mean_batch(rate):
            fleet = Fleet([Replica(curve, SLOAdaptiveBatcher(slo, curve))])
            return fleet.run(poisson_arrivals(rate, 3000, seed=5)).stats().mean_batch

        assert mean_batch(20000.0) > mean_batch(500.0)

    def test_slo_adaptive_target_batch_from_curve(self):
        # Latency grows with batch: 1 ms + 0.05 ms/example; with a 7 ms
        # SLO and half the budget for service, the largest candidate
        # under 3.5 ms is batch 32 (2.6 ms); batch 64 needs 4.2 ms.
        class Linear(ConstantCurve):
            def latency(self, batch):
                return 1e-3 + 5e-5 * batch

        curve = Linear(1e-3)
        batcher = SLOAdaptiveBatcher(7e-3, curve)
        assert batcher.max_batch == 32

    def test_make_batcher_validation(self):
        curve = ConstantCurve(SERVICE)
        with pytest.raises(ValueError):
            make_batcher("fixed", curve, slo_seconds=7e-3)  # no batch size
        with pytest.raises(ValueError):
            make_batcher("nope", curve, slo_seconds=7e-3)
        assert make_batcher("timeout", curve, 7e-3, batch_size=8).max_batch == 8
        for timeout in (math.nan, -1e-3):
            with pytest.raises(ValueError, match="timeout must be non-negative"):
                TimeoutBatcher(8, timeout)
        for slo in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="slo_seconds must be positive and finite"):
                SLOAdaptiveBatcher(slo, curve)
        with pytest.raises(ValueError, match="candidates must name at least one"):
            SLOAdaptiveBatcher(7e-3, curve, candidates=())


class TestMalformedArrivals:
    """``FleetSim`` takes finite times >= 0 s in non-decreasing order and
    names ``arrivals`` and the first bad index of any other trace."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival(self, bad):
        arrivals = np.arange(50) * 1e-3
        arrivals[7] = bad
        fleet = single_replica(TimeoutBatcher(8, 1e-3))
        with pytest.raises(ValueError, match=r"arrivals\[7\] must be a finite time"):
            fleet.run(arrivals)

    def test_two_dimensional_arrivals(self):
        fleet = single_replica(TimeoutBatcher(8, 1e-3))
        with pytest.raises(ValueError, match=r"arrivals must be one-dimensional.*\(5, 2\)"):
            fleet.run(np.zeros((5, 2)))

    @pytest.mark.parametrize("arrivals, message", [
        ([-5.0, 10.0], r"arrivals\[0\] must be a finite time >= 0 s, got -5\.0$"),
        ([0.5, 0.1], r"arrivals\[1\] must be >= arrivals\[0\] .*got 0\.1 after 0\.5$"),
        ([0.5, -1.0], r"arrivals\[1\] must be >= arrivals\[0\] .*got -1\.0 after 0\.5$"),
    ], ids=["negative", "unsorted", "unsorted-negative"])
    @pytest.mark.parametrize("runner", ["fleet", "autoscaled"])
    def test_refuses_a_negative_or_unsorted_trace(self, runner, arrivals, message):
        """A fresh server counts as busy until t = 0, so an arrival before
        it would wait for a later poll, and an unsorted trace would
        schedule into the past: both are refused before the run starts."""
        from repro.datacenter.autoscaler import (
            AutoscaleConfig,
            AutoscaledFleet,
            StaticPolicy,
        )

        if runner == "fleet":
            fleet = single_replica(TimeoutBatcher(8, 1e-3), occupancy=1e-3)
        else:
            fleet = AutoscaledFleet(
                lambda i: Replica(ConstantCurve(1e-3), TimeoutBatcher(8, 1e-3)),
                StaticPolicy(1), AutoscaleConfig(0.05, 0.0), replica_rps=8000.0,
            )
        with pytest.raises(ValueError, match=message):
            fleet.run(np.array(arrivals))


class TestJSQTieBreaking:
    """``FleetSim``'s per-arrival JSQ pick: fewest queued requests, then
    an idle server, then list order."""

    @staticmethod
    def _pick(replicas, now):
        sim = FleetSim(replicas, "jsq", np.array([now]))
        sim.now = now
        return sim._pick()

    def test_equal_backlogs_prefer_idle_server(self):
        curve = ConstantCurve(SERVICE)
        busy, idle = (Replica(curve, FixedBatcher(4)) for _ in range(2))
        busy.server.start_batch(0.0, 4)  # busy until t=2ms
        assert self._pick([busy, idle], now=1e-3) is idle
        # Once the busy one frees up, the tie falls back to index order.
        assert self._pick([busy, idle], now=3e-3) is busy

    def test_backlog_dominates_idleness(self):
        curve = ConstantCurve(SERVICE)
        shallow, deep = (Replica(curve, FixedBatcher(4)) for _ in range(2))
        shallow.server.start_batch(0.0, 4)  # busy, but queue is empty
        deep.admit_index(0)
        assert self._pick([deep, shallow], now=1e-3) is shallow

    def test_all_equal_picks_lowest_index(self):
        curve = ConstantCurve(SERVICE)
        replicas = [Replica(curve, FixedBatcher(4)) for _ in range(3)]
        assert self._pick(replicas, now=0.0) is replicas[0]


class TestDrainInvariant:
    def test_trace_drain_flushes_residual_queues(self):
        # A trace that parks partial batches on several replicas: every
        # request must complete, including on replicas that are busy
        # when the trace ends.
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, FixedBatcher(16)) for _ in range(3)],
            router="round_robin",
        )
        result = fleet.run(trace_arrivals([i * 1e-4 for i in range(50)]))
        assert result.responses.size == 50
        assert not np.isnan(result.responses).any()
        assert sum(result.served_per_replica) == 50

    def test_drain_is_deterministic(self):
        curve = ConstantCurve(SERVICE)

        def run():
            fleet = Fleet(
                [Replica(curve, FixedBatcher(16)) for _ in range(3)], router="jsq"
            )
            return fleet.run(poisson_arrivals(2000.0, 777, seed=12))

        a, b = run(), run()
        assert np.array_equal(a.responses, b.responses)
        assert a.served_per_replica == b.served_per_replica

    def test_stranding_batcher_is_flushed(self):
        # A policy with no deadline and a cap the trace never fills: the
        # end of the trace still serves everyone, in one batch.
        class Stubborn(Batcher):
            max_batch = 64

        fleet = single_replica(Stubborn())
        result = fleet.run(uniform_arrivals(1000.0, 20))
        assert result.responses.size == 20
        assert not np.isnan(result.responses).any()
        assert result.batches_per_replica == (1,)

    def test_admission_accounting(self):
        fleet = single_replica(FixedBatcher(4))
        fleet.run(uniform_arrivals(1000.0, 12))
        replica = fleet.replicas[0]
        assert replica.admitted == 12
        assert replica.server.served == 12


class TestBusyIntervals:
    def test_intervals_match_busy_time(self):
        fleet = single_replica(TimeoutBatcher(8, 1e-3))
        result = fleet.run(poisson_arrivals(1500.0, 600, seed=13))
        (intervals,) = result.busy_intervals
        assert sum(e - s for s, e in intervals) == pytest.approx(result.busy_time)
        # Intervals are chronological and disjoint (idle gaps between).
        for (_s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1 + 1e-12

    def test_batch_server_records_occupancy(self):
        from repro.serving.engine import BatchServer

        server = BatchServer(ConstantCurve(2e-3, 5e-3))
        server.start_batch(1.0, 4)
        assert server.busy_intervals == [(1.0, 1.002)]
        with pytest.raises(RuntimeError):  # still busy at 1.001
            server.start_batch(1.001, 1)


class TestRouters:
    def test_round_robin_fairness(self):
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, FixedBatcher(8)) for _ in range(4)],
            router="round_robin",
        )
        result = fleet.run(poisson_arrivals(4000.0, 8000, seed=6))
        served = result.served_per_replica
        assert sum(served) == 8000
        assert max(served) - min(served) <= 8  # one batch of slack

    def test_jsq_balances_load(self):
        # JSQ needs a batcher whose partial queues drain (fixed-only
        # batching starves replicas stuck below a full batch).
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, TimeoutBatcher(8, 5e-3)) for _ in range(4)],
            router="jsq",
        )
        result = fleet.run(poisson_arrivals(4000.0, 8000, seed=7))
        served = result.served_per_replica
        assert sum(served) == 8000
        assert min(served) > 0.7 * 8000 / 4

    def test_fleet_scales_throughput(self):
        def capacity(n_replicas):
            curve = ConstantCurve(SERVICE)
            fleet = Fleet(
                [Replica(curve, FixedBatcher(16)) for _ in range(n_replicas)]
            )
            # Far beyond one server's capacity (8000/s per replica).
            result = fleet.run(poisson_arrivals(30000.0, 12000, seed=8))
            return result.stats().throughput_rps

        assert capacity(4) > 3.2 * capacity(1)

    def test_unknown_router_rejected(self):
        replicas = [Replica(ConstantCurve(SERVICE), FixedBatcher(4))]
        builds = (
            lambda router: Fleet(replicas, router=router),
            lambda router: FleetSim(replicas, router, np.array([0.0])),
            lambda router: AutoscaledFleet(
                lambda i: replicas[0], StaticPolicy(1), AutoscaleConfig(1.0, 0.0),
                replica_rps=1.0, router=router,
            ),
        )
        named = r"unknown router 'central-scheduler'; try one of \['jsq', 'round_robin'\]"
        for build in builds:
            with pytest.raises(ValueError, match=named):
                build("central-scheduler")

    @pytest.mark.parametrize("router", ROUTERS)
    def test_empty_fleet_rejected(self, router):
        with pytest.raises(ValueError, match="a fleet needs at least one replica"):
            Fleet([], router=router)
        with pytest.raises(ValueError, match="a fleet needs at least one replica"):
            FleetSim([], router, np.array([0.0]))

    def test_the_spec_names_the_fleet_routers(self):
        """The spec keeps its own tuple, so importing it stays light."""
        assert spec.ROUTERS == ROUTERS


class TestTraffic:
    def test_poisson_reproducible_and_sorted(self):
        a = poisson_arrivals(100.0, 500, seed=9)
        b = poisson_arrivals(100.0, 500, seed=9)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            trace_arrivals([])
        with pytest.raises(ValueError):
            trace_arrivals([2.0, 1.0])
        assert trace_arrivals([0.0, 1.0, 1.0]).size == 3

    def test_trace_normalizes_origin(self):
        # Epoch-style timestamps must not inflate the horizon (they
        # would report ~0 throughput and utilization).
        times = trace_arrivals([1.7e9, 1.7e9 + 0.5, 1.7e9 + 1.0])
        assert times.tolist() == [0.0, 0.5, 1.0]

    GENERATORS = {
        "poisson": lambda rate, n: poisson_arrivals(rate, n),
        "uniform": uniform_arrivals,
        "diurnal": lambda rate, n: diurnal_arrivals(rate, 0.5, 1.0, n),
    }

    # Generators validate before drawing: diurnal_arrivals' thinning loop
    # never ends on a NaN or infinite rate or a NaN period.
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    @pytest.mark.parametrize("kind", ["poisson", "uniform", "diurnal"])
    def test_rejects_bad_rates(self, kind, rate):
        name = "mean_rate" if kind == "diurnal" else "rate"
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            self.GENERATORS[kind](rate, 100)

    @pytest.mark.parametrize("n_requests", [0, -3])
    @pytest.mark.parametrize("kind", ["poisson", "uniform", "diurnal"])
    def test_rejects_non_positive_request_counts(self, kind, n_requests):
        with pytest.raises(ValueError, match="^n_requests must be finite and positive"):
            self.GENERATORS[kind](100.0, n_requests)

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
    def test_diurnal_rejects_bad_periods(self, period):
        with pytest.raises(ValueError, match="^period_seconds must be finite and positive"):
            diurnal_arrivals(100.0, 0.5, period, 100)

    # A count that is not an integer is refused before anything is
    # drawn: 2.5 would otherwise size a 3-arrival trace without a word.
    NON_INTEGER_COUNTS = [2.5, 100.0, True, math.nan, "100", np.float64(100.0)]

    @pytest.mark.parametrize("n_requests", NON_INTEGER_COUNTS, ids=repr)
    def test_poisson_rejects_non_integer_request_counts(self, n_requests):
        with pytest.raises(ValueError, match="^n_requests must be an integer"):
            poisson_arrivals(1.0, n_requests)
        assert np.array_equal(
            poisson_arrivals(1.0, np.int64(5), seed=3), poisson_arrivals(1.0, 5, seed=3)
        )

    @pytest.mark.parametrize("n_requests", NON_INTEGER_COUNTS, ids=repr)
    def test_uniform_rejects_non_integer_request_counts(self, n_requests):
        with pytest.raises(ValueError, match="^n_requests must be an integer"):
            uniform_arrivals(1.0, n_requests)
        assert uniform_arrivals(1.0, np.int32(5)).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("n_requests", NON_INTEGER_COUNTS, ids=repr)
    def test_diurnal_rejects_non_integer_request_counts(self, n_requests):
        with pytest.raises(ValueError, match="^n_requests must be an integer"):
            diurnal_arrivals(100.0, 0.5, 1.0, n_requests)
        assert np.array_equal(
            diurnal_arrivals(100.0, 0.5, 1.0, np.int64(5), seed=3),
            diurnal_arrivals(100.0, 0.5, 1.0, 5, seed=3),
        )

    def test_diurnal_mean_rate(self):
        times = diurnal_arrivals(1000.0, 0.5, period_seconds=1.0,
                                 n_requests=4000, seed=10)
        realized = times.size / times[-1]
        assert realized == pytest.approx(1000.0, rel=0.15)

    def test_load_trace_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n0.0\n0.5\n\n1.5  # inline\n")
        times = load_trace(str(path))
        assert times.tolist() == [0.0, 0.5, 1.5]


class TestDiurnalBlocks:
    """``diurnal_arrivals`` draws its candidates in blocks and thins each
    block over arrays; the one-candidate-at-a-time loop in
    tests/oracles.py must give the identical trace.  Counts sit below,
    just past and many times one 4,096-candidate block."""

    RATE = 12000.0
    # (period, phase): many cycles per trace, about one, and a fraction.
    SHAPES = ((0.01, 0.25), (1.0, 0.0), (3.7, 2 / 3))

    @pytest.mark.parametrize("n, seeds", [(1, 60), (4097, 6), (20000, 3), (60000, 1)])
    @pytest.mark.parametrize("swing", [0.0, 0.6])
    def test_matches_the_per_candidate_loop(self, swing, n, seeds):
        for seed in range(seeds):
            period, phase = self.SHAPES[seed % len(self.SHAPES)]
            if seeds == 1:
                period, phase = n / self.RATE / 2, 0.1  # two cycles
            blocks = diurnal_arrivals(self.RATE, swing, period, n, seed=seed, phase=phase)
            reference = oracles.reference_diurnal_arrivals(
                self.RATE, swing, period, n, seed=seed, phase=phase
            )
            assert blocks.dtype == reference.dtype
            assert np.array_equal(blocks, reference), (seed, period, phase)


class TestVectorizedServingParity:
    """Bulk admission and the array closed loop must be bit-identical to
    the per-request oracles in tests/oracles.py: same responses, same
    per-replica accounting, same busy timeline.  Overloaded traffic
    exercises the bulk-admission window, short windows included; the
    trailing drain exercises partial batches."""

    def _replicas(self, n=3):
        curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=1.5e-3)
        return [Replica(curve, TimeoutBatcher(8, 5e-4)) for _ in range(n)]

    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    @pytest.mark.parametrize("traffic", ["poisson", "diurnal"])
    def test_fleet_fast_matches_reference(self, router, traffic, monkeypatch):
        if traffic == "poisson":
            arrivals = poisson_arrivals(rate=4000.0, n_requests=3000, seed=3)
        else:
            arrivals = diurnal_arrivals(
                mean_rate=4000.0, swing=0.6, period_seconds=0.25,
                n_requests=3000, seed=3,
            )
        # Round-robin timeout fleets take the batch scan; withhold it so
        # every run steps per arrival and differs only in admission.
        answered = withhold_batch_scan(monkeypatch)
        short_windows = 0
        original = FleetSim._bulk_admit

        def spy(sim, i, top_when):
            nonlocal short_windows
            j = original(sim, i, top_when)
            short_windows += 0 < j - i < 8
            return j

        def run(**patches):
            with monkeypatch.context() as patch:
                for name, method in patches.items():
                    patch.setattr(FleetSim, name, method)
                return FleetSim(self._replicas(), router, arrivals).run()

        bulk = run(_bulk_admit=spy)
        per_arrival = run(_bulk_admit=oracles.no_bulk_admission)
        every = run(_run_events=oracles.every_event)
        assert len(answered) == 2
        # Windows of fewer than 8 arrivals open under either router.
        assert short_windows > 0
        assert_same_run(bulk, per_arrival)
        assert_same_run(bulk, every)

    def test_fleet_fast_matches_reference_under_light_load(self, monkeypatch):
        """Below saturation JSQ windows cover idle replicas still filling
        a batch; they must not misfire."""
        arrivals = poisson_arrivals(rate=500.0, n_requests=1000, seed=9)
        bulk = FleetSim(self._replicas(), "jsq", arrivals).run()
        monkeypatch.setattr(FleetSim, "_bulk_admit", oracles.no_bulk_admission)
        per_arrival = FleetSim(self._replicas(), "jsq", arrivals).run()
        assert np.array_equal(bulk.responses, per_arrival.responses)
        assert bulk.busy_intervals == per_arrival.busy_intervals

    def test_closed_loop_fast_matches_reference(self):
        curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=2e-3)
        responses, server = run_closed_loop(64, 16, curve, n_batches=50)
        ref, ref_server = oracles.reference_closed_loop(64, 16, curve, n_batches=50)
        assert np.array_equal(responses, ref)
        assert server.busy_intervals == ref_server.busy_intervals


class GrowingCurve(LatencyCurve):
    """Batch time grows with the batch: 2^-10 s of occupancy at batch 8."""

    def occupancy(self, batch):
        return (8 + batch) * 2.0**-14

    def latency(self, batch):
        return (8 + batch) * 2.0**-13


class DippingCurve(GrowingCurve):
    """Batch 3 runs as fast as batch 1, so an SLO-adaptive wait budget
    rises from queue length 2 to 3."""

    def latency(self, batch):
        return super().latency(1 if batch == 3 else batch)


class ParityFleets:
    """Fleets and traffic for the parity tests against the per-arrival
    event loop.

    ``adaptive`` runs over :class:`GrowingCurve` with a 9 * 2^-12 s SLO,
    so its wait budgets ``(10 - L) * 2^-13`` fall with each queued
    request and most batches launch part-full at a deadline;
    ``adaptive_clamped`` has an SLO below its batch latency, so every
    budget clamps to 0.0 (and nothing fits, so it serves batch 8 anyway).
    """

    POLICIES = ("fixed", "timeout", "adaptive", "adaptive_clamped")
    # Powers of two: on the duplicate-timestamp grid, deadlines and free
    # times land exactly on arrivals.
    OCCUPANCY = 2.0**-10
    BATCH = 8
    TIMEOUT = 2.0**-11

    def _fleet(self, replicas, policy, batch=BATCH, timeout=TIMEOUT, router="round_robin"):
        curve = ConstantCurve(self.OCCUPANCY, latency_seconds=1.5 * self.OCCUPANCY)
        if policy == "adaptive":
            curve = GrowingCurve()

        def batcher():
            if policy == "fixed":
                return FixedBatcher(batch)
            if policy == "timeout":
                return TimeoutBatcher(batch, timeout)
            if policy == "adaptive":
                return SLOAdaptiveBatcher(
                    9 * 2.0**-12, curve, candidates=(1, batch),
                    service_share=1.0, slo_margin=1.0,
                )
            return SLOAdaptiveBatcher(self.OCCUPANCY, curve, candidates=(batch,))

        return Fleet(
            [Replica(curve, batcher()) for _ in range(replicas)],
            router=router,
        )

    def _arrivals(self, traffic, replicas, load, n=3000, seed=5):
        rate = load * replicas * self.BATCH / self.OCCUPANCY
        if traffic == "poisson":
            return poisson_arrivals(rate, n, seed=seed)
        if traffic == "diurnal":
            return diurnal_arrivals(rate, 0.6, 0.1, n, seed=seed)
        # Duplicate timestamps on a grid the timeout is a multiple of,
        # so deadlines, free times and arrivals collide exactly.
        rng = np.random.default_rng(seed)
        step = self.TIMEOUT / 2
        return np.sort(rng.integers(0, int(n / (rate * step)) + 1, n)) * step


def observe_run(run):
    """Run ``run()``, a fleet run, with tracing on; returns its
    simulated-clock spans as a multiset.  Its one wall span, whose time
    differs between any two runs, must be the fleet simulation's, named
    with the run's request and replica counts."""
    try:
        with obs.capture() as tracer:
            result = run()
        spans = tracer.snapshot()
        wall = [(s.name, s.cat, s.args) for s in spans if s.pid == obs.WALL_PID]
        assert wall == [("serving.fleet", "serving", {
            "requests": result.responses.size,
            "replicas": len(result.served_per_replica),
        })]
        return Counter(
            (s.name, s.cat, s.ts, s.dur, s.pid, s.tid, tuple(sorted(s.args.items())))
            for s in spans if s.pid != obs.WALL_PID
        )
    finally:
        obs.TRACER.clear()


def largest_batch(spans):
    """The largest ``batch`` arg among ``observe_run``'s batch spans."""
    return max(dict(args)["batch"] for name, *_, args in spans if name == "batch")


class TestBatchScanParity(ParityFleets):
    """Round-robin fixed, timeout and SLO-adaptive fleets step per batch
    (``FleetSim``'s batch scan).  The per-arrival event loop is the
    oracle: with ``no_batch_scan`` and ``no_bulk_admission`` from
    tests/oracles.py installed, the same fleet must give bit-identical
    responses, per-replica accounting, busy intervals, horizon and busy
    time.
    """

    def test_adaptive_fixture_budgets(self):
        grows = self._fleet(1, "adaptive").replicas[0].batcher
        assert grows.max_batch == self.BATCH
        assert [grows._wait_budget(n) for n in (1, 7)] == [9 * 2.0**-13, 3 * 2.0**-13]
        clamped = self._fleet(1, "adaptive_clamped").replicas[0].batcher
        assert clamped.max_batch == self.BATCH
        assert {clamped._wait_budget(n) for n in range(1, self.BATCH)} == {0.0}

    def check(self, monkeypatch, make_fleet, arrivals):
        """Run the scan and the oracle; returns the scan's result."""
        polls = []
        original_poll = FleetSim.poll
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "poll", lambda sim, r: polls.append(r))
            scanned = make_fleet().run(arrivals)
        assert polls == [], "the batch scan did not engage"
        with monkeypatch.context() as patch:
            answered = withhold_batch_scan(patch)
            patch.setattr(FleetSim, "_bulk_admit", oracles.no_bulk_admission)
            patch.setattr(FleetSim, "poll", original_poll)
            per_arrival = make_fleet().run(arrivals)
        assert len(answered) == 1, "the no_batch_scan oracle did not fire"
        assert_same_run(scanned, per_arrival)
        return scanned

    @pytest.mark.parametrize("traffic", ["poisson", "diurnal", "duplicates"])
    @pytest.mark.parametrize("replicas", [1, 3, 4])
    @pytest.mark.parametrize("policy", ["fixed", "timeout", "adaptive", "adaptive_clamped"])
    def test_matches_the_event_loop(self, monkeypatch, policy, replicas, traffic):
        arrivals = self._arrivals(traffic, replicas, load=0.7)
        if traffic == "duplicates":
            assert np.any(np.diff(arrivals) == 0)
        self.check(monkeypatch, lambda: self._fleet(replicas, policy), arrivals)

    @pytest.mark.parametrize("policy", ["fixed", "timeout", "adaptive", "adaptive_clamped"])
    def test_max_batch_one(self, monkeypatch, policy):
        arrivals = self._arrivals("duplicates", 3, load=0.1)
        self.check(monkeypatch, lambda: self._fleet(3, policy, batch=1), arrivals)

    @pytest.mark.parametrize("traffic", ["poisson", "duplicates"])
    def test_zero_timeout(self, monkeypatch, traffic):
        arrivals = self._arrivals(traffic, 3, load=0.5)
        self.check(monkeypatch, lambda: self._fleet(3, "timeout", timeout=0.0), arrivals)

    @pytest.mark.parametrize("prompt_end", [True, False])
    @pytest.mark.parametrize("policy", ["fixed", "timeout", "adaptive", "adaptive_clamped"])
    def test_trace_ending_in_a_partial_batch(self, monkeypatch, policy, prompt_end):
        """Every replica ends on a partial batch, which the end-of-trace
        poll launches unless a deadline comes first.  Without
        ``prompt_end`` the last arrival comes a second after the rest:
        fixed batchers' partial batches all wait for it, while every
        other policy's launch at their deadlines and it runs alone."""
        arrivals = self._arrivals("poisson", 3, load=0.6, n=3 * self.BATCH * 40 + 5)
        if not prompt_end:
            arrivals[-1] += 1.0
        result = self.check(monkeypatch, lambda: self._fleet(3, policy), arrivals)
        assert sum(result.served_per_replica) == arrivals.size
        if not prompt_end:
            last_starts = [intervals[-1][0] for intervals in result.busy_intervals]
            waited = 3 if policy == "fixed" else 1
            assert last_starts.count(arrivals[-1]) == waited

    @pytest.mark.parametrize("replicas", [1, 4])
    @pytest.mark.parametrize("policy", ["fixed", "timeout", "adaptive", "adaptive_clamped"])
    def test_overload(self, monkeypatch, policy, replicas):
        arrivals = self._arrivals("poisson", replicas, load=1.4)
        self.check(monkeypatch, lambda: self._fleet(replicas, policy), arrivals)

    @pytest.mark.parametrize("traffic", ["poisson", "diurnal", "duplicates"])
    @pytest.mark.parametrize("policy", ParityFleets.POLICIES)
    def test_one_replica_under_jsq(self, monkeypatch, policy, traffic):
        """A lone replica takes every arrival under either router, so a
        one-replica JSQ fleet scans too: bit-identical to the per-arrival
        loop, to ``every_event`` and to the round-robin scan."""
        for load in (0.7, 1.4):
            arrivals = self._arrivals(traffic, 1, load)
            scanned = self.check(
                monkeypatch, lambda: self._fleet(1, policy, router="jsq"), arrivals
            )
            with monkeypatch.context() as patch:
                patch.setattr(FleetSim, "_run_events", oracles.every_event)
                assert_same_run(self._fleet(1, policy, router="jsq").run(arrivals), scanned)
            assert_same_run(self._fleet(1, policy).run(arrivals), scanned)

    @pytest.mark.parametrize("policy", ParityFleets.POLICIES)
    def test_strided_read_only_trace(self, monkeypatch, policy):
        """The scan reads a strided, read-only trace in place: every other
        slot of its base is NaN, so a wrong stride cannot pass."""
        arrivals = self._arrivals("duplicates", 3, load=0.7)
        base = np.full(2 * arrivals.size, np.nan)
        base[::2] = arrivals
        view = base[::2]
        view.flags.writeable = False
        scanned = self.check(monkeypatch, lambda: self._fleet(3, policy), view)
        assert_same_run(scanned, self._fleet(3, policy).run(arrivals))

    def test_only_the_event_loop_copies_the_trace(self):
        """A scanned run keeps no Python float per request: it reads the
        trace through a memoryview.  A JSQ run, on the per-arrival event
        loop, copies the trace into a list of floats once."""
        arrivals = self._arrivals("poisson", 4, load=0.7, n=20_000)

        def blocks_kept(router):
            fleet = self._fleet(4, "fixed", batch=256, router=router)
            gc.collect()
            gc.disable()
            try:
                before = sys.getallocatedblocks()
                sim = FleetSim(fleet.replicas, fleet.router, arrivals)
                sim.run()
                return sys.getallocatedblocks() - before
            finally:
                gc.enable()

        assert blocks_kept("round_robin") < arrivals.size // 10
        assert blocks_kept("jsq") > arrivals.size // 2

    def test_a_head_launches_at_its_deadline_never_one_ulp_before(self, monkeypatch):
        """The launch rule compares deadlines, never ages.  The age test
        ``now - oldest >= budget`` holds one ulp before the float
        deadline ``oldest + budget``, and a poll lands there when an
        arrival, the server-free poll or an earlier head's pending timer
        polls at that instant; the head still launches at its deadline.
        Timeout and SLO-adaptive heads, round-robin (the batch scan) and
        JSQ (an admission window: ``no_batch_scan`` withholds the scan a
        lone JSQ replica would take), each against the ``no_batch_scan``,
        ``no_bulk_admission`` and ``every_event`` oracles.
        """
        timeout, unit = 1.5, 2.0**-56
        oldest = 24 * unit
        deadline = oldest + timeout
        early = math.nextafter(deadline, -math.inf)
        assert early - oldest >= timeout
        assert 9 * unit + timeout == early  # an earlier head's deadline

        def batchers(cap, occupancy):
            curve = ConstantCurve(occupancy_seconds=occupancy, latency_seconds=2.0**-10)
            return curve, {
                "timeout": lambda: TimeoutBatcher(cap, timeout),
                "adaptive": lambda: SLOAdaptiveBatcher(
                    timeout + 2.0**-10, curve, candidates=(cap,),
                    service_share=1.0, slo_margin=1.0,
                ),
            }

        cases = [
            # (cap, occupancy, arrivals, index of the batch the head starts,
            # batches in all)
            (4, 1e-3, [oldest, early, 10.0], 0, 2),  # an arrival polls early
            (4, early, [0.0] * 4 + [oldest, 10.0], 1, 3),  # the server frees early
            (2, 1e-300, [9 * unit, 10 * unit, oldest, 10.0], 1, 3),  # a pending timer
            (4, 1e-3, [oldest, deadline, 10.0], 0, 2),  # the deadline arrival joins
        ]
        oracle_patches = [
            {"_scan_applies": oracles.no_batch_scan, "_bulk_admit": oracles.no_bulk_admission},
            {"_bulk_admit": oracles.no_bulk_admission},
            {"_run_events": oracles.every_event},
        ]
        scanned, windows = [], []
        scan_batches, bulk_admit = FleetSim._scan_batches, FleetSim._bulk_admit

        def scan_spy(sim):
            scanned.append(sim)
            scan_batches(sim)

        def window_spy(sim, i, top_when):
            j = bulk_admit(sim, i, top_when)
            windows.append(range(i, j))
            return j

        for cap, occupancy, arrivals, k, batches in cases:
            curve, named = batchers(cap, occupancy)
            for name, new_batcher in named.items():
                assert new_batcher().max_batch == cap
                assert new_batcher().wait_deadline(1, oldest) == deadline, name
                for router in ("round_robin", "jsq"):
                    def make():
                        return Fleet([Replica(curve, new_batcher())], router=router)

                    scanned.clear()
                    windows.clear()
                    with monkeypatch.context() as patch:
                        if router == "jsq":
                            patch.setattr(FleetSim, "_scan_applies", oracles.no_batch_scan)
                        patch.setattr(FleetSim, "_scan_batches", scan_spy)
                        patch.setattr(FleetSim, "_bulk_admit", window_spy)
                        fast = make().run(np.array(arrivals))
                    assert fast.busy_intervals[0][k][0] == deadline, (name, router, arrivals)
                    assert fast.batches_per_replica == (batches,)
                    assert bool(scanned) == (router == "round_robin")
                    if router == "jsq" and early in arrivals:
                        assert any(arrivals.index(early) in w for w in windows), (
                            "no JSQ window admitted the arrival one ulp early"
                        )
                    for patches in oracle_patches:
                        with monkeypatch.context() as patch:
                            for attr, oracle in patches.items():
                                patch.setattr(FleetSim, attr, oracle)
                            assert_same_run(make().run(np.array(arrivals)), fast)

        # SLO-adaptive, budgets by queue length: the budget at queue length
        # 1 is one 2^-51 step over the budget at 2.  The first head's three
        # arrivals fill its batch, leaving its timers from queue lengths 1
        # and 2 pending.  The next head waits at queue length 2; the first
        # head's timer from queue length 1 polls one ulp before its
        # deadline, and it still launches at the deadline.
        class Steps(LatencyCurve):
            def occupancy(self, batch):
                return 1e-300

            def latency(self, batch):
                return 0.0 if batch == 1 else 2.0**-51

        def adaptive():
            batcher = SLOAdaptiveBatcher(
                timeout + 2.0**-51, Steps(), candidates=(3,),
                service_share=1.0, slo_margin=1.0,
            )
            assert [batcher._wait_budget(n) for n in (1, 2)] == [timeout + 2.0**-51, timeout]
            return Fleet([Replica(Steps(), batcher)])

        first, second = 9 * unit, 56 * unit
        second_early = math.nextafter(second + timeout, -math.inf)
        assert second_early - second >= timeout
        assert first + timeout + 2.0**-51 == second_early != first + timeout
        arrivals = np.array([first, 10 * unit, 11 * unit, second, 57 * unit, 10.0])
        result = self.check(monkeypatch, adaptive, arrivals)
        assert result.busy_intervals[0][1][0] == second + timeout
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_run_events", oracles.every_event)
            assert_same_run(adaptive().run(arrivals), result)

    @pytest.mark.parametrize("policy", ["timeout", "adaptive", "adaptive_clamped"])
    def test_observability_matches_the_event_loop(self, monkeypatch, policy):
        """Spans equal as a multiset (the scan records them replica by
        replica, the event loop in time order)."""
        arrivals = self._arrivals("poisson", 3, load=0.9)
        polls = []

        def observed():
            return observe_run(lambda: self._fleet(3, policy).run(arrivals))

        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "poll", lambda sim, r: polls.append(r))
            spans = observed()
        assert polls == [], "the batch scan did not engage"
        with monkeypatch.context() as patch:
            answered = withhold_batch_scan(patch)
            ref_spans = observed()
        assert answered
        assert spans == ref_spans
        assert largest_batch(spans) > 1

    def test_scan_stands_down_unless_streams_are_known_up_front(self):
        class CustomTimeout(TimeoutBatcher):
            pass

        def sim(batcher=TimeoutBatcher, router="round_robin", arrivals=(0.1, 0.2), count=2):
            curve = ConstantCurve(self.OCCUPANCY)
            replicas = [Replica(curve, batcher(4, self.TIMEOUT)) for _ in range(count)]
            return FleetSim(replicas, router, np.array(arrivals))

        assert sim()._scan_applies()
        # JSQ picks follow the queues, unless one replica takes every pick.
        assert not sim(router="jsq")._scan_applies()
        assert sim(router="jsq", count=1)._scan_applies()
        assert not sim(batcher=CustomTimeout)._scan_applies()
        scheduled = sim()
        scheduled.schedule(0.15, lambda _t: None)  # e.g. an autoscaler tick
        assert not scheduled._scan_applies()
        shrunk = sim()
        shrunk.eligible.pop()
        assert not shrunk._scan_applies()
        busy = sim()
        busy.replicas[1].server.start_batch(0.0995, 4)  # busy past the first arrival
        assert not busy._scan_applies()

        def adaptive(curve):
            return lambda batch, _timeout: SLOAdaptiveBatcher(
                9 * 2.0**-12, curve, candidates=(batch,), service_share=1.0, slo_margin=1.0
            )

        assert sim(batcher=adaptive(GrowingCurve()))._scan_applies()
        dips = sim(batcher=adaptive(DippingCurve()))
        budgets = [dips.replicas[0].batcher._wait_budget(n) for n in (2, 3)]
        assert budgets[1] > budgets[0]
        assert not dips._scan_applies()

    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    def test_a_fleet_runs_twice_identically(self, router):
        curve = ConstantCurve(occupancy_seconds=self.OCCUPANCY)
        fleet = Fleet(
            [Replica(curve, TimeoutBatcher(self.BATCH, self.TIMEOUT)) for _ in range(3)],
            router=router,
        )
        arrivals = self._arrivals("poisson", 3, load=0.8, n=1000)
        first = fleet.run(arrivals)
        second = fleet.run(arrivals)
        assert_same_run(first, second)
        assert sum(r.admitted for r in fleet.replicas) == 1000


class TestJSQWindowParity(ParityFleets):
    """JSQ fleets admit whole arrival windows at once, also while idle
    replicas are still filling a batch (``FleetSim._bulk_admit``), hold
    one timer per idle replica in a window, and drop poll timers whose
    replica is still busy unfired.  The windowed run withholds the batch
    scan (``no_batch_scan``), so a lone JSQ replica opens windows too.
    Two oracles from tests/oracles.py: with ``no_bulk_admission``
    installed (the per-arrival path through the same main loop), and
    with ``every_event`` (every arrival and every timer fired by
    ``run_every_event``), the same fleet must give bit-identical
    responses, per-replica accounting, busy intervals, horizon and busy
    time.
    """

    def check(self, monkeypatch, make_fleet, arrivals):
        """Run with windows and with both oracles; returns a Counter of
        the arrivals windows admitted: ``"idle"`` while some eligible
        replica was idle, ``"wide"`` while all were busy in windows of at
        least 8 arrivals, and ``"all"``."""
        admitted = Counter()
        original = FleetSim._bulk_admit

        def spy(sim, i, top_when):
            now = sim._times[i]
            idle = any(r.server.free_at <= now for r in sim.eligible)
            j = original(sim, i, top_when)
            admitted["all"] += j - i
            if idle:
                admitted["idle"] += j - i
            elif j - i >= 8:
                admitted["wide"] += j - i
            return j

        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_scan_applies", oracles.no_batch_scan)
            patch.setattr(FleetSim, "_bulk_admit", spy)
            windowed = make_fleet().run(arrivals)
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_bulk_admit", oracles.no_bulk_admission)
            per_arrival = make_fleet().run(arrivals)
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_run_events", oracles.every_event)
            every = make_fleet().run(arrivals)
        assert_same_run(windowed, per_arrival)
        assert_same_run(windowed, every)
        return admitted

    def test_no_window_ends_at_a_busy_replicas_poll_timer(self, monkeypatch):
        """A poll timer due before its replica frees would poll in vain;
        the main loop drops it, so it never bounds a window.  The spy
        reads the heap top behind each ``top_when`` and counts the poll
        timers made and fired: some are dropped, and live ones still
        bound windows."""
        bounds = Counter()
        timers = Counter()
        bulk_admit, init, call = FleetSim._bulk_admit, _PollTimer.__init__, _PollTimer.__call__

        def spy(sim, i, top_when):
            heap = sim._heap
            if not heap:
                assert top_when == math.inf
            else:
                when, _, event = heap[0]
                assert when == top_when
                if type(event) is _PollTimer:
                    bounds[event.replica.server.free_at > when] += 1
            return bulk_admit(sim, i, top_when)

        def made(timer, sim, replica):
            timers["made"] += 1
            init(timer, sim, replica)

        def fired(timer, now):
            timers["fired"] += 1
            call(timer, now)

        arrivals = self._arrivals("poisson", 4, load=0.7)
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_bulk_admit", spy)
            patch.setattr(_PollTimer, "__init__", made)
            patch.setattr(_PollTimer, "__call__", fired)
            self._fleet(4, "adaptive", router="jsq").run(arrivals)
        assert bounds[True] == 0, "a busy replica's poll timer bounded a window"
        assert bounds[False] > 0
        assert timers["made"] > timers["fired"] > 0

    @pytest.mark.parametrize("traffic", ["poisson", "diurnal", "duplicates"])
    @pytest.mark.parametrize("replicas", [1, 3, 4, 7])
    @pytest.mark.parametrize("policy", ParityFleets.POLICIES)
    def test_matches_the_per_arrival_path(self, monkeypatch, policy, replicas, traffic):
        admitted = Counter()
        for load in (0.3, 0.7, 1.0, 1.4):
            arrivals = self._arrivals(traffic, replicas, load, n=1500)
            admitted += self.check(
                monkeypatch, lambda: self._fleet(replicas, policy, router="jsq"), arrivals
            )
        assert admitted["wide"] > 0, "no wide window opened with every replica busy"
        if policy == "adaptive_clamped":
            # A zero budget launches on every poll of an idle replica,
            # so no replica is ever idle while holding a queue.
            assert admitted["idle"] == 0 < admitted["all"]
        else:
            assert admitted["idle"] > 0, "no window opened while a replica was idle"

    def test_seeded_fuzz(self, monkeypatch):
        """Random JSQ fleets: replica count, policy, batch cap, timeout,
        traffic shape, load and length all drawn from one seed."""
        rng = np.random.default_rng(20)
        idle_admitted = 0
        for _ in range(300):
            replicas = int(rng.choice([1, 2, 3, 4, 7]))
            policy = str(rng.choice(self.POLICIES))
            batch = int(rng.choice([1, 2, 4, 8, 16]))
            timeout = float(rng.choice([0.0, self.TIMEOUT / 2, self.TIMEOUT, 4 * self.TIMEOUT]))
            traffic = str(rng.choice(["poisson", "diurnal", "duplicates"]))
            arrivals = self._arrivals(
                traffic, replicas, load=float(rng.uniform(0.2, 1.6)),
                n=int(rng.integers(2, 800)), seed=int(rng.integers(2**31)),
            )
            idle_admitted += self.check(
                monkeypatch,
                lambda: self._fleet(replicas, policy, batch, timeout, router="jsq"),
                arrivals,
            )["idle"]
        assert idle_admitted > 0

    def test_deadline_reached_before_the_age(self, monkeypatch):
        """``0.7 + 0.1`` rounds down, so at an arrival there the deadline
        test ``oldest + budget <= now`` launches while the age test
        ``now - oldest >= budget`` does not.  A second arrival at the
        same instant must then find the replica busy.

        A timeout head's timer already sits at that deadline, so the
        window stops short of it; an adaptive head's budget shrinks from
        0.2 to 0.1 as its queue grows, so the window reaches the
        launching arrival itself."""
        now = 0.7 + 0.1
        assert now - 0.7 < 0.1

        class Step(LatencyCurve):
            def occupancy(self, batch):
                return 1e-3

            def latency(self, batch):
                return 0.0 if batch == 1 else 0.1

        for new_batcher in (
            lambda: TimeoutBatcher(4, 0.1),
            lambda: SLOAdaptiveBatcher(
                0.2, Step(), candidates=(4,), service_share=1.0, slo_margin=1.0
            ),
        ):
            admitted = self.check(
                monkeypatch,
                lambda: Fleet([Replica(Step(), new_batcher())], router="jsq"),
                np.array([0.0, 0.7, now, now, 5.0]),
            )
            assert admitted["idle"] > 0

    def test_custom_batchers_keep_the_per_arrival_path(self, monkeypatch):
        """A batcher subclass may override ``wait_deadline`` or keep state
        across polls, so no window opens while one is idle; all-busy
        windows still do."""

        class EveryThirdPoll(TimeoutBatcher):
            polls = 0

            def wait_deadline(self, queue_len, oldest_arrival):
                self.polls += 1
                if self.polls % 3 == 0:
                    return oldest_arrival  # due now: launch
                return super().wait_deadline(queue_len, oldest_arrival)

        curve = ConstantCurve(self.OCCUPANCY)
        admitted = self.check(
            monkeypatch,
            lambda: Fleet(
                [Replica(curve, EveryThirdPoll(self.BATCH, self.TIMEOUT)) for _ in range(3)],
                router="jsq",
            ),
            self._arrivals("poisson", 3, load=1.2),
        )
        assert admitted["idle"] == 0 < admitted["all"]

    @pytest.mark.parametrize("policy", ParityFleets.POLICIES)
    def test_observability_matches_the_per_arrival_path(self, monkeypatch, policy):
        """Spans equal as a multiset: the window launches nothing."""
        arrivals = self._arrivals("poisson", 3, load=0.6)

        def observed():
            return observe_run(lambda: self._fleet(3, policy, router="jsq").run(arrivals))

        spans = observed()
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_bulk_admit", oracles.no_bulk_admission)
            ref_spans = observed()
        assert spans == ref_spans
        assert largest_batch(spans) > 1


class RecordingQueue(deque):
    """A replica queue that logs what each ``extend`` (a range) and each
    ``append`` (an index) admits."""

    def __init__(self, log, items):
        super().__init__(items)
        self.log = log

    def extend(self, items):
        self.log.append(items)
        super().extend(items)

    def append(self, item):
        self.log.append(item)
        super().append(item)


class TestJSQWindowOracle:
    """``FleetSim._jsq_window`` against ``oracles.reference_jsq_window``,
    the per-arrival replay, on seeded random window states built twice:
    1-5 replicas, each with a fixed, timeout or SLO-adaptive batcher,
    busy or idle, with 0-6 requests queued; a sorted trace on a 2^-13 s
    grid, so timestamps repeat and deadlines land on arrivals; and a few
    timers already on the heap.  Both must return the same index and
    leave the same queues, admissions, timers from before the window and
    sequence counter.  Of the timers the replay sets, the window holds
    the earliest ``(deadline, seq)`` per replica; with another event on
    the heap (``_hold_timers`` off) it sets every one.
    """

    STEP = 2.0**-13

    def _state(self, seed, log=None):
        """A window state ``(sim, i, j)`` drawn from ``seed``; with
        ``log``, every queue is a :class:`RecordingQueue` writing to it."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 6))
        curve = GrowingCurve()  # adaptive wait budgets (10 - L) grid steps
        replicas = []
        for q in range(count):
            policy = int(rng.integers(3))
            batch = int(rng.choice([1, 2, 4, 8]))
            if policy == 0:
                batcher = FixedBatcher(batch)
            elif policy == 1:
                batcher = TimeoutBatcher(batch, int(rng.integers(9)) * self.STEP)
            else:
                batcher = SLOAdaptiveBatcher(
                    9 * 2.0**-12, curve, candidates=(1, batch),
                    service_share=1.0, slo_margin=1.0,
                )
            replicas.append(Replica(curve, batcher))
        depths = rng.integers(0, 7, count)
        queued = int(depths.sum())
        n = queued + int(rng.integers(1, 48)) + 1
        span = int(n * rng.uniform(0.1, 2.0)) + 1
        times = np.sort(rng.integers(0, span, n)) * self.STEP
        sim = FleetSim(replicas, "jsq", times)
        owners = rng.permutation(np.repeat(np.arange(count), depths)).tolist()
        now = sim._times[queued]
        for q, replica in enumerate(replicas):
            items = [index for index, owner in enumerate(owners) if owner == q]
            replica.queue = deque(items) if log is None else RecordingQueue(log, items)
            replica.admitted = len(items)
            if rng.integers(2):
                replica.server.free_at = now + int(rng.integers(1, 64)) * self.STEP
            else:
                replica.server.free_at = now - int(rng.integers(0, 4)) * self.STEP
        sim._seq = int(rng.integers(1000))
        for _ in range(int(rng.integers(3))):
            when = now + int(rng.integers(64)) * self.STEP
            sim.schedule(when, _PollTimer(sim, replicas[int(rng.integers(count))]))
        return sim, queued, n - 1

    @staticmethod
    def _timers(sim, seq):
        """The loop's timers as sorted ``(when, seq, replica index)``:
        those set before sequence number ``seq``, and those set since."""
        timers = sorted(
            (when, s, sim.replicas.index(t.replica)) for when, s, t in sim._heap
        )
        return [t for t in timers if t[1] < seq], [t for t in timers if t[1] >= seq]

    @staticmethod
    def _earliest_per_replica(timers):
        """The first of sorted ``timers`` for each replica."""
        earliest = {}
        for timer in timers:
            earliest.setdefault(timer[2], timer)
        return sorted(earliest.values())

    def _window_pair(self, seed, log=None, hold=True):
        """Run one state through the window and through the replay, and
        check all that must match in full.  Returns ``(sim, i, j, got)``
        for the window's run, and the timers each set."""
        sim, i, j = self._state(seed, log)
        ref, _, _ = self._state(seed)
        sim._hold_timers = hold
        seq = sim._seq
        got = sim._jsq_window(i, j, sim.eligible)
        want = oracles.reference_jsq_window(ref, i, j, ref.eligible)
        assert got == want, seed
        assert [list(r.queue) for r in sim.replicas] == [list(r.queue) for r in ref.replicas]
        assert [r.admitted for r in sim.replicas] == [r.admitted for r in ref.replicas]
        before, held = self._timers(sim, seq)
        ref_before, replayed = self._timers(ref, seq)
        assert before == ref_before, seed
        assert sim._seq == ref._seq
        return (sim, i, j, got), held, replayed

    def test_matches_the_per_arrival_replay(self):
        reached = Counter()
        for seed in range(4000):
            log = []
            (sim, i, j, got), held, replayed = self._window_pair(seed, log)
            assert held == self._earliest_per_replica(replayed), seed

            count = len(sim.replicas)
            for item in log:
                if type(item) is int:
                    reached["idle poll replay"] += 1
                elif len(item) >= 2 and count > 1:
                    reached["busy run of two or more" if item.step == 1 else "all-busy strided round"] += 1
            if got < j:
                when = sim._times[got]
                bound = min((t for t, _, _ in held), default=math.inf)
                now = sim._times[i]
                _, busy, _ = min(
                    (len(r.queue), r.server.free_at > now, q) for q, r in enumerate(sim.eligible)
                )
                if when < bound:
                    reached["cut at a launching arrival"] += 1
                elif busy and when == bound:
                    reached["busy pick cut at a timer tie"] += 1
                else:
                    reached["cut at a pushed timer"] += 1
        assert set(reached) == {
            "idle poll replay",
            "busy run of two or more",
            "all-busy strided round",
            "cut at a pushed timer",
            "busy pick cut at a timer tie",
            "cut at a launching arrival",
        }, reached

    def test_holds_one_timer_per_idle_replica(self):
        """A window leaves at most one new timer per replica, where the
        replay sets one per poll of an idle replica."""
        superseded = 0
        for seed in range(4000):
            _, held, replayed = self._window_pair(seed)
            owners = [q for _, _, q in held]
            assert len(owners) == len(set(owners)), seed
            superseded += len(replayed) - len(held)
        assert superseded > 0

    def test_sets_every_timer_beside_other_events(self):
        """A run that starts with anything but poll timers on its loop
        (an autoscaler's control tick) does not hold timers, and its
        windows then set every timer the replay sets."""
        curve = ConstantCurve(1e-3)
        sim = FleetSim(
            [Replica(curve, TimeoutBatcher(4, 1e-3)) for _ in range(2)],
            "jsq", np.arange(8) * 1e-4,
        )
        sim.schedule(5e-4, lambda _t: None)
        sim.run()
        assert not sim._hold_timers
        for seed in range(1000):
            _, held, replayed = self._window_pair(seed, hold=False)
            assert held == replayed, seed


class RecordingPolicy(ScalingPolicy):
    """A scaling policy that keeps every observation it is shown."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen = []

    def desired_replicas(self, obs):
        self.seen.append(obs)
        return self.inner.desired_replicas(obs)


class TestGridTies:
    """JSQ fleets and autoscaled JSQ fleets against ``every_event``, bit
    for bit, with arrivals, deadlines, batch times, spin-ups and control
    ticks on one 2^-13 s grid, so timers, polls and ticks meet at one
    float time: a static fleet's held timers must stand in for the ones
    they supersede, and an autoscaled fleet, which holds none, must show
    its policy the same observations.  Fixed, timeout and SLO-adaptive
    replicas over :class:`GrowingCurve`, some adaptive ones over
    :class:`DippingCurve`, whose budgets rise with the queue."""

    STEP = 2.0**-13

    def _make_replica(self, rng):
        """``make_replica(i)`` over batchers drawn from ``rng``."""
        # Adaptive wait budgets (10 - L) grid steps, or rising at L = 3.
        curves = (GrowingCurve(), DippingCurve())
        draws = [
            (int(rng.integers(3)), int(rng.choice([1, 2, 4, 8])), int(rng.integers(9)),
             curves[int(rng.integers(2))])
            for _ in range(8)
        ]

        def make_replica(i):
            policy, batch, wait, curve = draws[i % len(draws)]
            if policy == 0:
                batcher = FixedBatcher(batch)
            elif policy == 1:
                batcher = TimeoutBatcher(batch, wait * self.STEP)
            else:
                batcher = SLOAdaptiveBatcher(
                    9 * 2.0**-12, curve, candidates=(1, batch),
                    service_share=1.0, slo_margin=1.0,
                )
            return Replica(curve, batcher)

        return make_replica

    def _scaled(self, rng, make_replica, arrivals):
        """A fresh-policy autoscaled-run factory drawn from ``rng``."""

        def steps(lo, hi):
            return int(rng.integers(lo, hi)) * self.STEP

        low = int(rng.integers(1, 3))
        config = AutoscaleConfig(
            control_interval_seconds=steps(1, 13), spinup_seconds=steps(0, 17),
            min_replicas=low, max_replicas=low + int(rng.integers(0, 4)),
        )
        replica_rps = float(rng.uniform(0.2, 1.0)) / self.STEP
        predictive = bool(rng.integers(2))
        reactive = dict(
            target_utilization=float(rng.uniform(0.3, 0.7)), high_utilization=0.9,
            max_backlog_per_replica=int(rng.integers(1, 5)), cooldown_seconds=steps(0, 8),
        )
        lead = steps(0, 8)

        def run():
            if predictive:
                span = float(arrivals[-1]) or self.STEP
                inner = PredictivePolicy(arrivals.size / span, 0.5, span, lead_seconds=lead)
            else:
                inner = ReactivePolicy(**reactive)
            policy = RecordingPolicy(inner)
            result = AutoscaledFleet(
                make_replica, policy, config, replica_rps=replica_rps, router="jsq"
            ).run(arrivals)
            return result, policy.seen

        return run

    def _arrivals(self, rng):
        """Sorted grid times: single draws, or bursts of 1-10 requests at
        one instant, which fill a batch at once."""
        if rng.integers(2):
            n = int(rng.integers(20, 300))
            times = rng.integers(0, int(n * rng.uniform(0.2, 3.0)) + 1, n)
        else:
            bursts = int(rng.integers(5, 60))
            at = rng.integers(0, int(bursts * rng.uniform(2.0, 20.0)) + 1, bursts)
            times = np.repeat(at, rng.integers(1, 11, bursts))
        return np.sort(times) * self.STEP

    def test_seeded_grid_fuzz(self, monkeypatch):
        rng = np.random.default_rng(36)
        scaled_up = 0
        for _ in range(900):
            make_replica = self._make_replica(rng)
            arrivals = self._arrivals(rng)
            if rng.integers(3) == 0:
                count = int(rng.integers(1, 6))

                def run():
                    fleet = Fleet([make_replica(i) for i in range(count)], router="jsq")
                    return fleet.run(arrivals)

                fast = run()
                with monkeypatch.context() as patch:
                    patch.setattr(FleetSim, "_run_events", oracles.every_event)
                    assert_same_run(run(), fast)
                continue
            run = self._scaled(rng, make_replica, arrivals)
            fast, seen = run()
            with monkeypatch.context() as patch:
                patch.setattr(FleetSim, "_run_events", oracles.every_event)
                every, every_seen = run()
            assert_same_run(every.fleet, fast.fleet)
            assert every.timeline == fast.timeline
            assert every.powered == fast.powered
            assert every.mean_powered == fast.mean_powered
            assert every_seen == seen
            scaled_up += fast.peak_replicas > fast.timeline[0][1]
        assert scaled_up > 50

    def test_a_tick_sees_the_queue_every_event_sees(self, monkeypatch):
        """A control tick at the instant a superseded timer comes due.
        Eight arrivals at t = 0 fill an adaptive replica's batch (cap 8,
        budgets 10 - L steps), its first seven polls setting timers at 9,
        8, ..., 3 steps; the batch runs until 8 steps.  A ninth arrival
        at t = 0 waits behind it; when the server frees, its own timer is
        set for 9 steps, after the tick at 9 steps was scheduled.  The
        per-event loop launches it at the 9-step timer set at t = 0,
        before that tick, so the tick sees an empty queue.  Holding only
        the earliest of the window's timers would launch it after the
        tick, which would then see it queued: with a control tick on the
        loop, each timer is set."""
        step = self.STEP
        curve = GrowingCurve()

        def make_replica(i):
            return Replica(curve, SLOAdaptiveBatcher(
                9 * 2.0**-12, curve, candidates=(1, 8), service_share=1.0, slo_margin=1.0,
            ))

        class Hold(ScalingPolicy):
            name = "hold"

            def desired_replicas(self, obs):
                return 1

        arrivals = np.array([0.0] * 9 + [40.0, 41.0]) * step

        def run():
            policy = RecordingPolicy(Hold())
            result = AutoscaledFleet(
                make_replica, policy, AutoscaleConfig(3 * step, 0.0, 1, 1), replica_rps=1.0,
            ).run(arrivals)
            return result, [(o.now / step, o.queued) for o in policy.seen]

        fast, seen = run()
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "_run_events", oracles.every_event)
            every, every_seen = run()
        assert fast.fleet.busy_intervals[0][:2] == ((0.0, 8 * step), (9 * step, 13.5 * step))
        assert (9.0, 0) in seen
        assert seen == every_seen
        assert_same_run(fast.fleet, every.fleet)


class TestSimLifetime(ParityFleets):
    """A finished ``FleetSim`` is freed by reference counting alone.  A
    reference cycle through the sim (per-replica poll closures cached on
    it, say) would keep each finished run's arrays alive until a full
    collection."""

    @pytest.mark.parametrize("policy", ["fixed", "timeout", "adaptive"])
    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    def test_finished_sim_is_freed_by_reference_counting(self, router, policy):
        fleet = self._fleet(3, policy, router=router)
        arrivals = self._arrivals("poisson", 3, load=0.7, n=1000)
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = FleetSim(fleet.replicas, fleet.router, arrivals)
            ref = weakref.ref(sim)
            sim.run()
            del sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestFreshProcesses:
    """One seed gives one result in any process: two interpreters with
    different hash seeds print identical rows and metadata, equal to
    ``repro.run`` of the same scenario in this process."""

    @staticmethod
    def fresh_outputs(*args):
        """``python -m repro <args> --json`` under two hash seeds; asserts
        the two agree and returns the first."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outs = []
        for hashseed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *args, "--json"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": hashseed},
            )
            outs.append(json.loads(proc.stdout))
        assert outs[0]["rows"] == outs[1]["rows"]
        assert outs[0]["metadata"] == outs[1]["metadata"]
        return outs[0]

    @staticmethod
    def assert_matches_in_process(scenario, out):
        local = json.loads(json.dumps(repro.run(scenario).to_dict()))
        assert local["rows"] == out["rows"]
        assert local["metadata"] == out["metadata"]

    @pytest.mark.parametrize("extra, fields", [
        ((), {}),
        # Past capacity: windows open with every replica busy, so their
        # picks go round in strided slices.
        (("--policy", "fixed", "--batch", "128", "--loads", "1.5"),
         {"policy": "fixed", "batch": 128, "loads": (1.5,)}),
    ], ids=["adaptive", "fixed-overloaded"])
    def test_jsq_fleet_agrees_bit_for_bit(self, monkeypatch, extra, fields):
        out = self.fresh_outputs(
            "serve", "--router", "jsq", "--replicas", "4", "--traffic", "diurnal",
            "--requests", "20000", *extra,
        )
        busy_windows = 0
        window = FleetSim._jsq_window

        def spy(sim, i, j, eligible):
            nonlocal busy_windows
            now = sim._times[i]
            busy_windows += all(r.server.free_at > now for r in eligible)
            return window(sim, i, j, eligible)

        monkeypatch.setattr(FleetSim, "_jsq_window", spy)
        scenario = repro.ServeScenario(
            router="jsq", replicas=4, traffic="diurnal", requests=20000, **fields
        )
        self.assert_matches_in_process(scenario, out)
        assert busy_windows > 0

    @pytest.mark.parametrize("args, scenario", [
        # Round-robin SLO-adaptive fleets: FleetSim's batch scan.
        (("serve",), repro.ServeScenario()),
        # The hybrid backend's event cells run FleetSim.
        (("globe",), repro.GlobalScenario()),
        (("profile", "mlp0"), repro.ProfileScenario(workload="mlp0")),
    ], ids=["serve", "globe", "profile-mlp0"])
    def test_default_scenarios_agree_bit_for_bit(self, args, scenario):
        self.assert_matches_in_process(scenario, self.fresh_outputs(*args))


def test_batch_scan_engaged_by_default(monkeypatch):
    """Round-robin timeout fleets and a one-replica fixed fleet never
    poll; a JSQ fleet (no scan) does, so the spy is live."""
    polls = []
    original = FleetSim.poll

    def spy(sim, replica):
        polls.append(replica)
        return original(sim, replica)

    monkeypatch.setattr(FleetSim, "poll", spy)
    curve = ConstantCurve(occupancy_seconds=1e-3)
    arrivals = poisson_arrivals(6000.0, 2000, seed=4)
    for router in ("round_robin", "jsq"):
        fleet = Fleet(
            [Replica(curve, TimeoutBatcher(8, 5e-4)) for _ in range(4)], router=router
        )
        result = fleet.run(arrivals)
        assert sum(result.served_per_replica) == 2000
        assert (len(polls) > 0) == (router == "jsq")
    polls.clear()
    single_replica(FixedBatcher(16)).run(poisson_arrivals(1000.0, 500))
    assert polls == []


class TestSummarize:
    def test_matches_numpy_percentile(self):
        responses = np.linspace(1e-3, 1e-1, 1000)
        stats = summarize(responses, horizon=1.0, busy_time=0.5,
                          warmup_fraction=0.0, slo_seconds=5e-2)
        assert stats.p99_seconds == pytest.approx(np.percentile(responses, 99))
        assert stats.slo_miss_fraction == pytest.approx(0.5, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize(np.array([]), horizon=1.0, busy_time=0.0)


class TestSweep:
    @pytest.fixture(scope="class")
    def spec(self, workloads):
        from repro.analysis.common import platforms

        return FleetSpec(
            platform=platforms()["tpu"], model=workloads["mlp0"],
            replicas=2, policy="adaptive", slo_seconds=7e-3, router="jsq",
        )

    def test_operating_curve_and_best_point(self, spec):
        points = serving_sweep(spec, (0.4, 0.9), n_requests=4000)
        assert len(points) == 2
        best = max_throughput_under_slo(points)
        assert best is not None and best.meets_slo
        assert all(p.throughput_rps > 0 for p in points)

    def test_tpu_adaptive_batch_is_large(self, spec):
        # The paper's Table 4 point: deterministic execution keeps large
        # batches (≈200+) inside the 7 ms budget.
        assert spec.max_batch() >= 200

    def test_tight_slo_starves_batch(self, workloads):
        from repro.analysis.common import platforms

        tight = FleetSpec(
            platform=platforms()["cpu"], model=workloads["mlp0"],
            replicas=1, policy="adaptive", slo_seconds=7e-3,
        )
        loose = FleetSpec(
            platform=platforms()["cpu"], model=workloads["mlp0"],
            replicas=1, policy="adaptive", slo_seconds=100e-3,
        )
        assert tight.max_batch() < loose.max_batch()

    def test_run_point_validates_load(self, spec):
        with pytest.raises(ValueError):
            run_point(spec, 0.0)


class TestPlatformCurve:
    def test_interpolates_between_anchors(self, workloads):
        from repro.analysis.common import platforms

        curve = PlatformCurve(platforms()["cpu"], workloads["mlp0"])
        lat_lo, lat_hi = curve.latency(16), curve.latency(32)
        mid = curve.latency(24)
        assert min(lat_lo, lat_hi) <= mid <= max(lat_lo, lat_hi)

    def test_exact_at_anchor(self, workloads):
        from repro.analysis.common import platforms
        from repro.serving.fleet import occupancy_latency

        platform = platforms()["cpu"]
        curve = PlatformCurve(platform, workloads["mlp0"])
        occ, lat = occupancy_latency(platform, workloads["mlp0"], 64)
        assert curve.occupancy(64) == pytest.approx(occ)
        assert curve.latency(64) == pytest.approx(lat)

    def test_rejects_nonpositive_batch(self, workloads):
        from repro.analysis.common import platforms

        curve = PlatformCurve(platforms()["cpu"], workloads["mlp0"])
        with pytest.raises(ValueError):
            curve.latency(0)
