"""Datacenter layer tests: energy accounting, autoscaling, TCO, planning."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import repro
from repro.api.spec import DatacenterScenario
from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    AutoscaledFleet,
    FleetObservation,
    PredictivePolicy,
    ReactivePolicy,
    StaticPolicy,
)
from repro.datacenter.energy import (
    ReplicaPower,
    fleet_energy,
    replica_energy,
    utilization_timeline,
)
from repro.datacenter.tco import CostModel, fleet_cost, servers_for
from repro.platforms.specs import SERVERS
from repro.power.proportionality import PowerCurve
from repro.serving.batcher import SLOAdaptiveBatcher, TimeoutBatcher
from repro.serving.engine import ConstantCurve, LatencyCurve
from repro.serving.fleet import Fleet, Replica
from repro.serving.traffic import (
    diurnal_arrivals,
    make_traffic,
    poisson_arrivals,
    uniform_arrivals,
)
from tests import oracles

SERVICE = 2e-3


def flat_power(idle_w=10.0, busy_w=100.0, alpha=1.0):
    """A ReplicaPower stub with a hand-built die curve, no host share."""
    power = ReplicaPower("tpu", include_host=False)
    power._die = PowerCurve(name="test", idle_w=idle_w, busy_w=busy_w, alpha=alpha)
    return power


class TestUtilizationTimeline:
    def test_exact_busy_fractions(self):
        durations, util = utilization_timeline(
            [(0.0, 0.5), (1.0, 1.25)], span=(0.0, 2.0), window_seconds=1.0
        )
        assert durations.tolist() == [1.0, 1.0]
        assert util.tolist() == [0.5, 0.25]

    def test_interval_spanning_windows(self):
        _, util = utilization_timeline([(0.5, 1.5)], (0.0, 2.0), 1.0)
        assert util.tolist() == [0.5, 0.5]

    def test_partial_last_window_weighted(self):
        durations, util = utilization_timeline([(1.0, 1.5)], (0.0, 1.5), 1.0)
        assert durations.tolist() == [1.0, 0.5]
        assert util.tolist() == [0.0, 1.0]

    def test_clips_outside_span(self):
        _, util = utilization_timeline([(-1.0, 0.5), (1.8, 5.0)], (0.0, 2.0), 1.0)
        assert util[0] == pytest.approx(0.5)
        assert util[1] == pytest.approx(0.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            utilization_timeline([], (1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            utilization_timeline([], (0.0, 1.0), 0.0)


class TestReplicaEnergy:
    def test_always_busy_draws_busy_watts(self):
        power = flat_power()
        report = replica_energy([(0.0, 10.0)], (0.0, 10.0), power, 1.0)
        assert report.joules == pytest.approx(10 * 100.0)
        assert report.utilization == pytest.approx(1.0)

    def test_always_idle_draws_idle_watts(self):
        report = replica_energy([], (0.0, 10.0), flat_power(), 1.0)
        assert report.joules == pytest.approx(10 * 10.0)
        assert report.avg_watts == pytest.approx(10.0)

    def test_windowing_reproduces_figure10_ratio(self):
        # Every window exactly 10% busy -> avg/peak equals the paper's
        # published P(0.1)/P(1.0) ratio for the calibrated die curve.
        power = ReplicaPower("tpu", app="cnn0", include_host=False)
        intervals = [(float(i), i + 0.1) for i in range(100)]
        report = replica_energy(intervals, (0.0, 100.0), power, 1.0)
        assert report.utilization == pytest.approx(0.1)
        ratio = report.avg_watts / report.peak_watts
        assert ratio == pytest.approx(0.88, abs=0.01)

    def test_alpha_matters_through_windows(self):
        # Same busy time, same windows: a flatter curve (small alpha)
        # must burn more than a proportional one (alpha = 1).
        intervals = [(float(i), i + 0.25) for i in range(20)]
        flat = replica_energy(intervals, (0.0, 20.0), flat_power(alpha=0.05), 1.0)
        linear = replica_energy(intervals, (0.0, 20.0), flat_power(alpha=1.0), 1.0)
        assert flat.joules > linear.joules


class TestFleetEnergy:
    def run_fleet(self, rate=1000.0, n=2000, replicas=2):
        fleet = Fleet(
            [Replica(ConstantCurve(SERVICE), TimeoutBatcher(16, 1e-3))
             for _ in range(replicas)],
            router="jsq",
        )
        return fleet.run(poisson_arrivals(rate, n, seed=11))

    def test_busy_intervals_recorded_and_disjoint(self):
        result = self.run_fleet()
        assert len(result.busy_intervals) == 2
        for intervals in result.busy_intervals:
            spans = np.array(intervals)
            assert np.all(spans[:, 1] > spans[:, 0])
            assert np.all(spans[1:, 0] >= spans[:-1, 1] - 1e-12)  # disjoint
        total = sum(e - s for r in result.busy_intervals for s, e in r)
        assert total == pytest.approx(result.busy_time)

    def test_fleet_energy_totals(self):
        result = self.run_fleet()
        energy = fleet_energy(result, flat_power(), window_seconds=result.horizon / 50)
        assert energy.joules == pytest.approx(sum(r.joules for r in energy.replicas))
        assert energy.avg_watts == pytest.approx(energy.joules / result.horizon)
        assert energy.peak_watts == pytest.approx(2 * 100.0)
        assert 0.0 < energy.power_ratio <= 1.0
        assert energy.energy_per_request_j == pytest.approx(
            energy.joules / result.responses.size
        )

    def test_low_load_penalty_exceeds_high_load(self):
        # The proportionality penalty (actual/ideal Watts) worsens as
        # load falls -- Figure 10's whole point.
        lo = fleet_energy(self.run_fleet(rate=400.0), flat_power(alpha=0.1))
        hi = fleet_energy(self.run_fleet(rate=7000.0), flat_power(alpha=0.1))
        assert lo.utilization < hi.utilization
        assert lo.proportionality_penalty > hi.proportionality_penalty

    def test_powered_span_mismatch_rejected(self):
        result = self.run_fleet()
        with pytest.raises(ValueError):
            fleet_energy(result, flat_power(), powered=[(0.0, 1.0)])


class TestReplicaPower:
    def test_cpu_replica_is_half_server(self):
        power = ReplicaPower("cpu")
        assert power.peak_w == pytest.approx(SERVERS["cpu"].busy_w / 2)

    def test_host_share_included_for_accelerators(self):
        with_host = ReplicaPower("tpu")
        die_only = ReplicaPower("tpu", include_host=False)
        assert die_only.peak_w == pytest.approx(40.0)
        assert with_host.peak_w > die_only.peak_w

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReplicaPower("asic")


def quick_config(**kwargs):
    defaults = dict(
        control_interval_seconds=0.05, spinup_seconds=0.1,
        min_replicas=1, max_replicas=8,
    )
    defaults.update(kwargs)
    return AutoscaleConfig(**defaults)


def make_replica(i):
    return Replica(ConstantCurve(SERVICE), TimeoutBatcher(16, 1e-3))


class LinearCurve(LatencyCurve):
    """Batch time grows with the batch: SERVICE at batch 16."""

    def occupancy(self, batch):
        return SERVICE * (0.5 + batch / 32)

    def latency(self, batch):
        return self.occupancy(batch)


def make_adaptive_replica(i):
    """An SLO-adaptive replica capped at batch 16, whose wait budget
    shrinks as its queue grows."""
    curve = LinearCurve()
    batcher = SLOAdaptiveBatcher(4e-3, curve, candidates=(1, 4, 8, 16, 32))
    return Replica(curve, batcher)


class TestAutoscaler:
    REPLICA_RPS = 16 / SERVICE  # 8000/s at full batches

    def test_static_policy_matches_fixed_fleet(self):
        arrivals = poisson_arrivals(3000.0, 3000, seed=1)
        scaled = AutoscaledFleet(
            make_replica, StaticPolicy(3), quick_config(),
            replica_rps=self.REPLICA_RPS,
        ).run(arrivals)
        assert scaled.peak_replicas == 3
        assert scaled.mean_powered == pytest.approx(3.0)
        assert scaled.fleet.responses.size == 3000
        assert all(off >= on for on, off in scaled.powered)

    def test_reactive_scales_up_under_load_jump(self):
        # Rate far above one replica's capacity: the reactive policy
        # must grow the fleet.
        arrivals = poisson_arrivals(20000.0, 8000, seed=2)
        scaled = AutoscaledFleet(
            make_replica, ReactivePolicy(), quick_config(spinup_seconds=0.05),
            replica_rps=self.REPLICA_RPS,
        ).run(arrivals)
        assert scaled.peak_replicas >= 3
        assert scaled.fleet.responses.size == 8000

    def test_reactive_scales_down_when_load_falls(self):
        rng_high = poisson_arrivals(20000.0, 6000, seed=3)
        tail = rng_high[-1] + poisson_arrivals(500.0, 1000, seed=4)
        arrivals = np.concatenate([rng_high, tail])
        scaled = AutoscaledFleet(
            make_replica,
            ReactivePolicy(cooldown_seconds=0.05),
            quick_config(spinup_seconds=0.05, max_replicas=6),
            replica_rps=self.REPLICA_RPS,
        ).run(arrivals)
        final_active = scaled.timeline[-1][1]
        assert final_active < scaled.peak_replicas

    def test_predictive_anticipates_diurnal_peak(self):
        period = 2.0
        arrivals = diurnal_arrivals(6000.0, 0.8, period, 12000, seed=5)
        policy = PredictivePolicy(
            6000.0, 0.8, period, lead_seconds=0.15, target_utilization=0.7
        )
        scaled = AutoscaledFleet(
            make_replica, policy, quick_config(),
            replica_rps=self.REPLICA_RPS,
        ).run(arrivals)
        # Peak demand is 6000*1.8/8000/0.7 ~ 1.93 replicas -> 2+.
        assert scaled.peak_replicas >= 2
        assert scaled.mean_powered < scaled.peak_replicas

    def test_spinup_latency_delays_capacity(self):
        # Light traffic, then a 30x jump.  With spin-up longer than the
        # whole trace the reinforcements never arrive and the burst
        # queues; with instant spin-up the fleet absorbs it.
        calm = poisson_arrivals(1000.0, 200, seed=6)
        burst = calm[-1] + poisson_arrivals(30000.0, 4000, seed=7)
        arrivals = np.concatenate([calm, burst])

        def p99(spinup):
            return AutoscaledFleet(
                make_replica, ReactivePolicy(),
                quick_config(spinup_seconds=spinup),
                replica_rps=self.REPLICA_RPS,
            ).run(arrivals).fleet.stats().p99_seconds

        assert p99(10.0) > 2 * p99(0.0)

    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    def test_a_second_run_repeats_the_first(self, router):
        """One autoscaled fleet run twice gives bit-identical results: no
        routing state outlives a run, so round-robin starts at the first
        replica each time."""
        runs = [
            (StaticPolicy(3), poisson_arrivals(3000.0, 3001, seed=1)),
            (
                PredictivePolicy(6000.0, 0.8, 2.0, lead_seconds=0.15, target_utilization=0.7),
                diurnal_arrivals(6000.0, 0.8, 2.0, 4000, seed=5),
            ),
        ]
        for policy, arrivals in runs:
            fleet = AutoscaledFleet(
                make_replica, policy, quick_config(),
                replica_rps=self.REPLICA_RPS, router=router,
            )
            first, second = fleet.run(arrivals), fleet.run(arrivals)
            assert np.array_equal(first.fleet.responses, second.fleet.responses)
            assert first.fleet.served_per_replica == second.fleet.served_per_replica
            assert first.timeline == second.timeline

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StaticPolicy(0)
        with pytest.raises(ValueError):
            ReactivePolicy(target_utilization=0.95, high_utilization=0.9)
        with pytest.raises(ValueError):
            PredictivePolicy(0.0, 0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            quick_config(control_interval_seconds=0.0)

    def test_observation_drives_predictive_sizing(self):
        policy = PredictivePolicy(1000.0, 0.0, 1.0, 0.0, target_utilization=0.5)
        obs = FleetObservation(
            now=0.0, active=1, spinning_up=0, queued=0,
            arrival_rate=1000.0, utilization=0.5, replica_rps=1000.0,
        )
        assert policy.desired_replicas(obs) == 2  # 1000/(0.5*1000)


class TestAutoscalerFastPath:
    """Bulk admission in the autoscaler's dynamic-eligible-set path.

    The bulk-admission window keys off ``sim.eligible`` at admission
    time, so a routing set that grows and shrinks between control ticks
    neither disables it nor changes a single response: the window bound
    (``min(free_at)`` vs the next heap event) already fences every
    control tick, activation, and deactivation.  Dropping the poll
    timers of busy replicas moves nothing either: the run matches
    ``every_event`` (tests/oracles.py), which fires every event.
    """

    REPLICA_RPS = 16 / SERVICE

    def _run(self, policy, arrivals, replica=make_replica, **cfg):
        return AutoscaledFleet(
            replica, policy, quick_config(**cfg),
            replica_rps=self.REPLICA_RPS,
        ).run(arrivals)

    def test_bulk_admission_engages_under_autoscaling(self, monkeypatch):
        from repro.serving import fleet as fleet_mod

        windows = []
        original = fleet_mod.FleetSim._bulk_admit

        def spy(sim, i, top_when):
            j = original(sim, i, top_when)
            if j > i:
                windows.append(j - i)
            return j

        monkeypatch.setattr(fleet_mod.FleetSim, "_bulk_admit", spy)
        arrivals = poisson_arrivals(20000.0, 8000, seed=2)
        scaled = self._run(ReactivePolicy(), arrivals, spinup_seconds=0.05)
        assert scaled.peak_replicas >= 3  # the eligible set really changed
        assert sum(windows) > 0  # and bulk admission still fired

    @pytest.mark.parametrize("policy_factory", [
        lambda: ReactivePolicy(cooldown_seconds=0.05),
        lambda: PredictivePolicy(6000.0, 0.8, 2.0, lead_seconds=0.15,
                                 target_utilization=0.7),
    ], ids=["reactive", "predictive"])
    def test_fast_path_is_bit_identical(self, monkeypatch, policy_factory):
        from repro.serving import fleet as fleet_mod

        arrivals = diurnal_arrivals(6000.0, 0.8, 2.0, 12000, seed=5)
        for replica in (make_replica, make_adaptive_replica):
            with monkeypatch.context() as patch:
                bulk = self._run(policy_factory(), arrivals, replica)
                patch.setattr(
                    fleet_mod.FleetSim, "_bulk_admit", oracles.no_bulk_admission
                )
                per_arrival = self._run(policy_factory(), arrivals, replica)
            with monkeypatch.context() as patch:
                patch.setattr(fleet_mod.FleetSim, "_run_events", oracles.every_event)
                every = self._run(policy_factory(), arrivals, replica)
            for oracle in (per_arrival, every):
                assert np.array_equal(bulk.fleet.responses, oracle.fleet.responses)
                assert bulk.fleet.busy_intervals == oracle.fleet.busy_intervals
                assert bulk.fleet.horizon == oracle.fleet.horizon
                assert bulk.timeline == oracle.timeline
                assert bulk.powered == oracle.powered
                assert bulk.peak_replicas == oracle.peak_replicas
                assert bulk.mean_powered == oracle.mean_powered


class TestAutoscaledSimLifetime:
    """A finished autoscaled ``FleetSim`` is freed by reference counting
    alone, as ``TestSimLifetime`` checks for plain fleets.  The control
    tick reschedules itself through its own closure; if that cycle
    outlived the run, each finished sim and its arrays would wait for a
    full collection."""

    @pytest.mark.parametrize("policy_factory", [
        lambda: ReactivePolicy(cooldown_seconds=0.05),
        lambda: PredictivePolicy(6000.0, 0.8, 2.0, lead_seconds=0.15,
                                 target_utilization=0.7),
    ], ids=["reactive", "predictive"])
    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    def test_finished_sim_is_freed(self, monkeypatch, router, policy_factory):
        from repro.serving import fleet as fleet_mod

        sims = []
        original = fleet_mod.FleetSim.run

        def run(sim):
            sims.append(weakref.ref(sim))
            return original(sim)

        monkeypatch.setattr(fleet_mod.FleetSim, "run", run)
        arrivals = diurnal_arrivals(6000.0, 0.8, 2.0, 4000, seed=5)
        enabled = gc.isenabled()
        gc.disable()
        try:
            scaled = AutoscaledFleet(
                make_replica, policy_factory(), quick_config(spinup_seconds=0.05),
                replica_rps=16 / SERVICE, router=router,
            ).run(arrivals)
            (ref,) = sims
            assert scaled.peak_replicas >= 2  # the control loop really scaled
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestTCO:
    def test_servers_round_up_by_dies(self):
        assert servers_for("tpu", 1) == 1
        assert servers_for("tpu", 4) == 1
        assert servers_for("tpu", 5) == 2
        assert servers_for("cpu", 4) == 2
        with pytest.raises(ValueError):
            servers_for("cpu", 0)

    def test_cost_arithmetic(self):
        model = CostModel(
            usd_per_kwh=0.1, pue=2.0, capex_usd_per_tdp_watt=10.0,
            amortization_years=1.0,
        )
        cost = fleet_cost("tpu", 4, joules=3.6e6, horizon_seconds=3600.0,
                          requests=1_000_000, model=model)
        assert cost.servers == 1
        assert cost.energy_kwh == pytest.approx(2.0)  # 1 kWh IT * PUE
        assert cost.energy_usd == pytest.approx(0.2)
        expected_capex = SERVERS["tpu"].tdp_w * 10.0 / (365.25 * 24)
        assert cost.capex_usd == pytest.approx(expected_capex)
        assert cost.usd_per_million_requests == pytest.approx(cost.total_usd)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(pue=0.0)
        with pytest.raises(ValueError):
            fleet_cost("cpu", 1, 0.0, 0.0, 1)


class TestProvisioning:
    @pytest.fixture(scope="class")
    def spec(self, workloads):
        from repro.analysis.common import platforms
        from repro.serving.sweep import FleetSpec

        return FleetSpec(
            platform=platforms()["cpu"], model=workloads["mlp0"],
            replicas=1, policy="adaptive", slo_seconds=7e-3, router="jsq",
        )

    def test_plan_meets_slo_with_enough_replicas(self, spec):
        from repro.datacenter.provisioning import plan_capacity

        per = spec.capacity_rps()
        arrivals = uniform_arrivals(1.5 * per, 4000)
        plan = plan_capacity(spec, arrivals, max_replicas=8)
        assert plan.meets_slo
        assert 2 <= plan.replicas <= 8
        assert plan.stats.p99_seconds <= spec.slo_seconds
        assert plan.energy.joules > 0
        assert plan.cost.usd_per_million_requests > 0

    def test_infeasible_mean_load_rejected(self, spec):
        from repro.datacenter.provisioning import plan_capacity

        arrivals = uniform_arrivals(20 * spec.capacity_rps(), 2000)
        with pytest.raises(ValueError):
            plan_capacity(spec, arrivals, max_replicas=4)

    def test_compare_policies_shared_trace(self, spec):
        from repro.datacenter.provisioning import compare_policies

        per = spec.capacity_rps()
        arrivals = diurnal_arrivals(1.2 * per, 0.5, 0.5, 4000, seed=7)
        config = AutoscaleConfig(
            control_interval_seconds=0.01, spinup_seconds=0.02,
            min_replicas=1, max_replicas=8,
        )
        outcomes = compare_policies(
            spec, arrivals,
            [StaticPolicy(3), ReactivePolicy(cooldown_seconds=0.02)],
            config,
        )
        assert [o.policy for o in outcomes] == ["static(3)", "reactive"]
        static, reactive = outcomes
        assert static.mean_powered == pytest.approx(3.0)
        assert static.stats.completed == reactive.stats.completed
        # The autoscaled fleet should not power more than it peaked at.
        assert reactive.mean_powered <= reactive.peak_replicas + 1e-9


class TestStudy:
    def test_static_outcome_is_the_provisioning_run(self):
        """``run_study`` takes the static policy's outcome from the plan of
        the autoscaled platform; running that fleet again through
        ``compare_policies`` must give the same outcome, field for field."""
        from repro.analysis.datacenter import _spec, run_study, study_timings
        from repro.datacenter.provisioning import PolicyOutcome, compare_policies

        scenario = DatacenterScenario(requests=3000, max_replicas=8)
        result = run_study(scenario)
        plan = result.plans[result.autoscaled_kind]
        arrivals = make_traffic("diurnal", swing=scenario.swing)(
            scenario.rate, scenario.requests, seed=scenario.seed
        )
        _, interval, spinup = study_timings(scenario)
        (rerun,) = compare_policies(
            _spec(scenario, result.autoscaled_kind), arrivals,
            [StaticPolicy(plan.replicas)],
            AutoscaleConfig(interval, spinup, max_replicas=scenario.max_replicas),
            cost_model=CostModel(
                usd_per_kwh=scenario.usd_per_kwh, pue=scenario.pue,
                capex_usd_per_tdp_watt=scenario.capex_per_watt,
            ),
        )
        static = result.outcomes[0]
        assert static.policy == f"static({plan.replicas})"
        for field in dataclasses.fields(PolicyOutcome):
            assert getattr(static, field.name) == getattr(rerun, field.name), field.name
        assert [o.policy for o in result.outcomes[1:]] == ["reactive", "predictive"]

    def test_fresh_processes_agree_bit_for_bit(self, tmp_path):
        """Two interpreters with different hash seeds emit identical rows
        and metadata for one study."""
        config = tmp_path / "datacenter.json"
        config.write_text(json.dumps({
            "kind": "datacenter", "workload": "mlp0", "slo_ms": 7,
            "requests": 4000, "max_replicas": 8,
        }))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outs = []
        for hashseed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "datacenter",
                 "--config", str(config), "--json"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": hashseed},
            )
            outs.append(json.loads(proc.stdout))
        assert outs[0]["rows"] == outs[1]["rows"]
        assert outs[0]["metadata"] == outs[1]["metadata"]
        assert {row["section"] for row in outs[0]["rows"]} == {"provisioning", "autoscaling"}


class TestCLI:
    def test_datacenter_command(self, capsys):
        from repro.__main__ import main

        assert main([
            "datacenter", "--workload", "mlp0", "--slo-ms", "7",
            "--requests", "3000", "--rate", "20000", "--max-replicas", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cheapest SLO-feasible fleet" in out
        assert "Autoscaling" in out
        assert "$/Mreq" in out

    def test_datacenter_rejects_unknown_workload(self, capsys):
        from repro.__main__ import main

        assert main(["datacenter", "--workload", "resnet"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_datacenter_rejects_bad_platforms(self, capsys):
        from repro.__main__ import main

        assert main(["datacenter", "--platforms", "cpu,fpga"]) == 2
        assert "subset" in capsys.readouterr().err

    def test_experiment_registered(self):
        from repro.analysis import EXPERIMENTS

        assert "datacenter_provisioning" in EXPERIMENTS
