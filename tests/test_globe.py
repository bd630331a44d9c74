"""repro.globe: hybrid-vs-exact validation, routing, specs, CLI, obs.

The anchor tests here are the hybrid-backend accuracy pins: on worlds
small enough to event-simulate end to end, the hybrid's p99 and
throughput must land within 5% of the exact simulator across routing
policies, load levels (analytic band through overload), and batching
policies.  Both backends consume the identical demand profile and
routing plan, so any gap isolates the pricing model.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.__main__ import main
from repro.api import (
    ClusterSpec,
    GlobalScenario,
    RegionSpec,
    ScenarioSpec,
    SpecError,
)
from repro.globe import (
    ROUTING_POLICIES,
    build_topology,
    plan_routes,
    simulate_global,
    weighted_percentile,
)
from repro.globe.backend import _stride_assign
from repro.latency.queueing import (
    erlang_c,
    fluid_backlog,
    mdc_mean_wait,
    mmc_mean_wait,
)
from repro.serving.fleet import FleetSim
from tests import oracles


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.TRACER.clear()
    yield
    obs.TRACER.clear()


def small_world(rate=9000.0, **overrides):
    """A 3-region follow-the-sun world small enough for the exact backend."""
    fields = dict(
        workload="mlp0",
        policy="timeout",
        batch=16,
        timeout_ms=2.0,
        regions=tuple(
            RegionSpec(name=name, rate_rps=rate, swing=0.6, phase=phase,
                       clusters=(ClusterSpec(name=f"{name}-tpu"),))
            for name, phase in (
                ("americas", 0.0), ("europe", 1.0 / 3.0), ("asia", 2.0 / 3.0),
            )
        ),
        period_s=30.0,
        duration_s=30.0,
        bins=12,
    )
    fields.update(overrides)
    return GlobalScenario(**fields)


# ----------------------------------------------------------------------
# hybrid backend vs the exact event simulator (the 5% acceptance pin)
# ----------------------------------------------------------------------
TOLERANCE = 0.05


class TestHybridVsExact:
    def check(self, scenario):
        hybrid = simulate_global(scenario)
        exact = simulate_global(scenario.replace(backend="exact"))
        assert hybrid.p99_seconds == pytest.approx(
            exact.p99_seconds, rel=TOLERANCE
        ), f"p99: hybrid {hybrid.p99_seconds} vs exact {exact.p99_seconds}"
        assert hybrid.throughput_rps == pytest.approx(
            exact.throughput_rps, rel=TOLERANCE
        )
        return hybrid, exact

    @pytest.mark.parametrize("routing", sorted(ROUTING_POLICIES))
    def test_within_tolerance_across_routing_policies(self, routing):
        self.check(small_world(routing=routing))

    @pytest.mark.parametrize("rate", [4000.0, 14000.0])
    def test_within_tolerance_across_load_levels(self, rate):
        # 4000/s sits in the analytic band; 14000/s pushes the diurnal
        # peak against cluster capacity (event and fluid regimes).
        self.check(small_world(rate=rate))

    @pytest.mark.parametrize("policy, batch, timeout_ms", [
        ("fixed", 16, None),
        ("adaptive", None, None),
    ])
    def test_within_tolerance_across_batch_policies(self, policy, batch,
                                                    timeout_ms):
        self.check(small_world(policy=policy, batch=batch,
                               timeout_ms=timeout_ms))

    def test_backends_agree_on_world_size(self):
        hybrid, exact = self.check(small_world(rate=4000.0))
        # Expected (hybrid) vs realized Poisson (exact) request counts.
        assert hybrid.total_requests == pytest.approx(
            exact.total_requests, rel=0.02
        )
        assert hybrid.backend == "hybrid" and exact.backend == "exact"
        assert exact.backend_cells == {"exact": 3}

    def test_seed_determinism(self):
        a = simulate_global(small_world(rate=4000.0))
        b = simulate_global(small_world(rate=4000.0))
        assert a == b


class TestExactBackendOracles:
    """The globe's fast paths against the oracles in tests/oracles.py:
    FleetSim's per-batch scan (each cluster, and each hybrid event cell,
    is a round-robin timeout or SLO-adaptive fleet) and the plain-float
    stride scheduler."""

    @pytest.mark.parametrize("world", ["timeout", "adaptive", "default_hybrid"])
    def test_rows_identical_through_the_per_arrival_loop(self, monkeypatch, world):
        # The exact worlds are loaded enough that some bins spill across
        # regions, so clusters replay merged multi-region arrival streams.
        if world == "timeout":
            scenario = small_world(
                rate=14000.0, duration_s=1.0, period_s=1.0, bins=4, backend="exact",
            )
        elif world == "adaptive":
            scenario = small_world(
                rate=150000.0, duration_s=0.1, period_s=0.1, bins=4, backend="exact",
                policy="adaptive", batch=None, timeout_ms=None,
            )
        else:
            scenario = GlobalScenario()
        polls = []
        with monkeypatch.context() as patch:
            patch.setattr(FleetSim, "poll", lambda sim, replica: polls.append(replica))
            scanned = repro.run(scenario)
        assert polls == [], "the batch scan did not engage"
        answered = []

        def no_batch_scan(sim):
            answered.append(sim)
            return oracles.no_batch_scan(sim)

        monkeypatch.setattr(FleetSim, "_scan_applies", no_batch_scan)
        per_arrival = repro.run(scenario)
        assert scanned.rows == per_arrival.rows
        global_row = next(r for r in scanned.rows if r["section"] == "global")
        if world == "default_hybrid":
            assert answered and global_row["backend_cells"]["event"] > 0
            return
        assert len(answered) == 3
        assert global_row["spill_fraction"] > 0

    def test_stride_assign_matches_the_numpy_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            fractions = rng.random(int(rng.integers(2, 5)))
            fractions[rng.random(fractions.size) < 0.3] = 0.0  # zero-share clusters
            if not fractions.any():
                fractions[0] = 1.0
            fractions /= fractions.sum()
            n = int(rng.integers(1, 2000))
            assert np.array_equal(
                _stride_assign(n, fractions),
                oracles.reference_stride_assign(n, fractions),
            ), fractions


# ----------------------------------------------------------------------
# routing plans
# ----------------------------------------------------------------------
class TestRouting:
    def test_shares_conserve_demand(self):
        topology = build_topology(small_world(rate=14000.0))
        for policy in ROUTING_POLICIES:
            plan = plan_routes(topology, policy, 0.9)
            np.testing.assert_allclose(
                plan.shares.sum(axis=2), topology.demand(), rtol=1e-9
            )

    def test_latency_policy_stays_local_below_threshold(self):
        topology = build_topology(small_world(rate=4000.0))
        plan = plan_routes(topology, "latency", 0.9)
        assert plan.spilled_fraction(topology) == 0.0

    def test_cost_policy_prefers_cheap_remote_capacity(self):
        # asia's cluster is 10x cheaper and (adaptive batching) has room
        # for the whole world: cost routing sends everything there.
        scenario = small_world(
            rate=4000.0, policy="adaptive", batch=None, timeout_ms=None,
            routing="cost",
            regions=tuple(
                RegionSpec(name=name, rate_rps=4000.0, swing=0.6, phase=phase,
                           clusters=(ClusterSpec(name=f"{name}-tpu", cost=cost),))
                for name, phase, cost in (
                    ("americas", 0.0, 1.0),
                    ("europe", 1.0 / 3.0, 1.0),
                    ("asia", 2.0 / 3.0, 0.1),
                )
            ),
        )
        topology = build_topology(scenario)
        plan = plan_routes(topology, "cost", 0.9)
        cheap = next(c for c in topology.clusters if c.name == "asia-tpu")
        total = plan.shares.sum()
        assert plan.shares[:, :, cheap.index].sum() == pytest.approx(total)
        assert plan.mean_cost(topology) == pytest.approx(0.1)
        # The latency plan keeps everyone home and pays the full price.
        local = plan_routes(topology, "latency", 0.9)
        assert local.mean_cost(topology) == pytest.approx(0.7)
        assert local.spilled_fraction(topology) == 0.0
        assert plan.spilled_fraction(topology) > 0.6

    def test_spillover_policy_spills_only_past_local_saturation(self):
        quiet = build_topology(small_world(rate=4000.0))
        assert plan_routes(quiet, "spillover", 0.9).spilled_fraction(quiet) == 0.0
        loud = build_topology(small_world(rate=21000.0))
        spilled = plan_routes(loud, "spillover", 0.9).spilled_fraction(loud)
        assert spilled > 0.0

    def test_overload_assigns_past_threshold_rather_than_dropping(self):
        # Demand beyond every cluster's threshold still lands somewhere.
        topology = build_topology(small_world(rate=25000.0))
        plan = plan_routes(topology, "latency", 0.9)
        np.testing.assert_allclose(
            plan.shares.sum(axis=2), topology.demand(), rtol=1e-9
        )
        caps = np.array([c.capacity_rps for c in topology.clusters])
        assert (plan.cluster_rates() > 0.9 * caps).any()

    def test_unknown_policy_raises(self):
        topology = build_topology(small_world(rate=4000.0))
        with pytest.raises(ValueError, match="unknown routing policy"):
            plan_routes(topology, "nearest", 0.9)

    def test_rtt_overrides_flow_into_topology(self):
        scenario = small_world(rtt_ms=(("americas", "asia", 250.0),))
        topology = build_topology(scenario)
        asia = next(c for c in topology.clusters if c.name == "asia-tpu")
        eu = next(c for c in topology.clusters if c.name == "europe-tpu")
        americas = next(r for r in topology.regions if r.name == "americas")
        assert topology.rtt(americas.index, asia) == pytest.approx(0.250)
        assert topology.rtt(americas.index, eu) == pytest.approx(0.080)
        local = next(c for c in topology.clusters if c.name == "americas-tpu")
        assert topology.rtt(americas.index, local) == 0.0


# ----------------------------------------------------------------------
# closed-form pieces used by the hybrid backend
# ----------------------------------------------------------------------
class TestClosedForms:
    def test_erlang_c_single_server_equals_utilization(self):
        # For c=1 the waiting probability is exactly rho.
        for rho in (0.1, 0.5, 0.9):
            assert erlang_c(1, rho) == pytest.approx(rho)

    def test_erlang_c_saturates_at_instability(self):
        assert erlang_c(4, 1.0) == 1.0
        assert erlang_c(4, 1.5) == 1.0
        with pytest.raises(ValueError):
            erlang_c(0, 0.5)

    def test_mmc_mean_wait_matches_mm1_closed_form(self):
        rate, service = 80.0, 0.01  # rho = 0.8
        rho = rate * service
        expected = rho * service / (1 - rho)
        assert mmc_mean_wait(rate, 1, service) == pytest.approx(expected)
        assert mmc_mean_wait(0.0, 1, service) == 0.0
        assert mmc_mean_wait(101.0, 1, service) == np.inf

    def test_mdc_is_half_mmc(self):
        assert mdc_mean_wait(80.0, 2, 0.02) == pytest.approx(
            0.5 * mmc_mean_wait(80.0, 2, 0.02)
        )

    def test_fluid_backlog_recurrence(self):
        out = fluid_backlog([150.0, 150.0, 50.0, 50.0], 100.0, 1.0)
        np.testing.assert_allclose(out, [50.0, 100.0, 50.0, 0.0])
        out = fluid_backlog([50.0], 100.0, 1.0, initial=200.0)
        np.testing.assert_allclose(out, [150.0])

    def test_weighted_percentile_matches_unweighted_on_uniform_mass(self):
        values = np.arange(100, dtype=float)
        weights = np.full(100, 1.0 / 100)
        assert weighted_percentile(values, weights, 0.0) == 0.0
        assert weighted_percentile(values, weights, 1.0) == 99.0
        mid = weighted_percentile(values, weights, 0.5)
        assert 49.0 <= mid <= 51.0

    def test_weighted_percentile_follows_the_mass(self):
        values = np.array([1.0, 10.0])
        assert weighted_percentile(values, np.array([0.99, 0.01]), 0.5) == 1.0
        assert weighted_percentile(values, np.array([0.01, 0.99]), 0.5) == 10.0
        # Order of the value array must not matter.
        assert weighted_percentile(
            values[::-1].copy(), np.array([0.99, 0.01]), 0.5
        ) == 10.0


# ----------------------------------------------------------------------
# GlobalScenario round-trips and validation
# ----------------------------------------------------------------------
finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def globe_st(draw):
    n_regions = draw(st.integers(1, 3))
    regions = []
    for i in range(n_regions):
        clusters = tuple(
            ClusterSpec(
                name=f"r{i}c{j}",
                platform=draw(st.sampled_from(["cpu", "gpu", "tpu"])),
                replicas=draw(st.integers(1, 4)),
                cost=draw(st.floats(min_value=0.1, max_value=10.0, **finite)),
            )
            for j in range(draw(st.integers(1, 2)))
        )
        regions.append(RegionSpec(
            name=f"r{i}",
            rate_rps=draw(st.floats(min_value=10.0, max_value=1e5, **finite)),
            swing=draw(st.floats(min_value=0.0, max_value=0.99, **finite)),
            phase=draw(st.floats(min_value=0.0, max_value=1.0, **finite)),
            clusters=clusters,
        ))
    rtt = ()
    if n_regions >= 2 and draw(st.booleans()):
        rtt = (("r0", "r1",
                draw(st.floats(min_value=0.0, max_value=500.0, **finite))),)
    lo = draw(st.floats(min_value=0.05, max_value=0.7, **finite))
    hi = draw(st.floats(min_value=0.8, max_value=1.0, **finite))
    return GlobalScenario(
        workload=draw(st.sampled_from(["mlp0", "lstm0", "cnn0"])),
        slo_ms=draw(st.floats(min_value=0.5, max_value=100.0, **finite)),
        policy=draw(st.sampled_from(["adaptive", "fixed", "timeout"])),
        batch=draw(st.none() | st.integers(1, 512)),
        timeout_ms=draw(st.none() | st.floats(min_value=0.1, max_value=50.0,
                                              **finite)),
        router=draw(st.sampled_from(["round_robin", "jsq"])),
        routing=draw(st.sampled_from(sorted(ROUTING_POLICIES))),
        regions=tuple(regions),
        period_s=draw(st.floats(min_value=1.0, max_value=1e4, **finite)),
        duration_s=draw(st.floats(min_value=1.0, max_value=1e4, **finite)),
        bins=draw(st.integers(1, 48)),
        backend="hybrid",
        knee=(lo, hi),
        spill_threshold=draw(st.floats(min_value=0.1, max_value=1.0, **finite)),
        default_rtt_ms=draw(st.floats(min_value=0.0, max_value=500.0, **finite)),
        rtt_ms=rtt,
        event_requests=draw(st.integers(100, 10000)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(globe_st())
    def test_dict_and_json_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_default_scenario_round_trips(self):
        spec = GlobalScenario()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["kind"] == "globe"

    def test_nested_specs_coerce_from_plain_dicts(self):
        spec = ScenarioSpec.from_dict({
            "kind": "globe",
            "regions": [
                {"name": "na", "rate_rps": 5000.0,
                 "clusters": [{"name": "na-tpu", "replicas": 2}]},
            ],
        })
        assert isinstance(spec, GlobalScenario)
        assert isinstance(spec.regions[0], RegionSpec)
        assert isinstance(spec.regions[0].clusters[0], ClusterSpec)
        assert spec.regions[0].clusters[0].replicas == 2
        assert spec.regions[0].clusters[0].platform == "tpu"  # default

    def test_unknown_nested_field_is_an_error(self):
        with pytest.raises(SpecError, match="unknown field"):
            ScenarioSpec.from_dict({
                "kind": "globe",
                "regions": [{"name": "na", "color": "blue",
                             "clusters": [{"name": "c"}]}],
            })

    def test_subclass_from_dict_checks_kind(self):
        with pytest.raises(SpecError, match="does not match"):
            GlobalScenario.from_dict({"kind": "serve"})


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: small_world(routing="nearest"), "routing must be one of"),
        (lambda: small_world(backend="magic"), "backend must be one of"),
        (lambda: small_world(knee=(0.9, 0.2)), "knee must be"),
        (lambda: small_world(knee=(0.0, 1.0)), "knee must be"),
        (lambda: small_world(regions=()), "regions must be a non-empty"),
        (lambda: small_world(spill_threshold=0.0), "spill_threshold"),
        (lambda: small_world(default_rtt_ms=-1.0), "default_rtt_ms"),
        (lambda: small_world(event_requests=0), "event_requests"),
        (lambda: small_world(workload="resnet"), "unknown workload"),
        (lambda: small_world(rtt_ms=(("americas", "mars", 10.0),)),
         "unknown region"),
        (lambda: small_world(rtt_ms=(("americas", "americas", 10.0),)),
         "self-RTT"),
        (lambda: small_world(regions=(
            RegionSpec(name="a", clusters=(ClusterSpec(name="c"),)),
            RegionSpec(name="a", clusters=(ClusterSpec(name="d"),)),
        )), "region names must be unique"),
        (lambda: small_world(regions=(
            RegionSpec(name="a", clusters=(ClusterSpec(name="c"),)),
            RegionSpec(name="b", clusters=(ClusterSpec(name="c"),)),
        )), "cluster names must be unique"),
        (lambda: small_world(regions=(RegionSpec(name="a"),)),
         "at least one region needs a cluster"),
        (lambda: small_world(rate=1e6, backend="exact"),
         "backend='exact' would simulate"),
    ])
    def test_actionable_messages(self, build, message):
        with pytest.raises(SpecError, match=message):
            build()

    def test_nested_cluster_validation_fires(self):
        with pytest.raises(SpecError, match="cluster platform must be one of"):
            ClusterSpec(name="c", platform="fpga")
        with pytest.raises(SpecError, match="replicas"):
            ClusterSpec(name="c", replicas=0)
        with pytest.raises(SpecError, match="rate_rps"):
            RegionSpec(name="r", rate_rps=-5.0)

    def test_exact_backend_allowed_on_small_worlds(self):
        spec = small_world(rate=4000.0, backend="exact")
        assert spec.backend == "exact"


# ----------------------------------------------------------------------
# facade, CLI, and observability surfaces
# ----------------------------------------------------------------------
class TestFacadeAndCLI:
    def test_run_facade_returns_scenario_result(self):
        result = repro.run(small_world(rate=2000.0))
        assert result.kind == "globe"
        assert "global p99" in result.summary
        sections = {row["section"] for row in result.rows}
        assert sections == {"global", "cluster"}
        global_row = next(r for r in result.rows if r["section"] == "global")
        assert global_row["backend"] == "hybrid"
        assert global_row["total_requests"] > 0
        cluster_rows = [r for r in result.rows if r["section"] == "cluster"]
        assert len(cluster_rows) == 3
        # The wire form must already be JSON-native.
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()

    def test_globe_config_json_matches_facade(self, tmp_path, capsys):
        spec = small_world(rate=2000.0)
        config = tmp_path / "scenario.json"
        config.write_text(spec.to_json())
        assert main(["globe", "--config", str(config), "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)
        lib = json.loads(json.dumps(repro.run(spec).to_dict()))
        assert cli == lib
        assert cli["kind"] == "globe"

    def test_globe_flags_smoke(self, capsys):
        assert main(["globe", "--rate", "2000", "--duration-s", "30",
                     "--bins", "6"]) == 0
        out = capsys.readouterr().out
        assert "global p99" in out and "americas" in out

    def test_globe_config_wrong_kind(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(repro.ServeScenario().to_json())
        assert main(["globe", "--config", str(config)]) != 0
        assert "globe" in capsys.readouterr().err

    def test_trace_globe_writes_globe_spans(self, tmp_path):
        out = tmp_path / "globe.json"
        assert main(["globe", "--rate", "2000", "--duration-s", "30",
                     "--bins", "6", "--trace-out", str(out)]) == 0
        trace = json.loads(out.read_text())
        cats = {event.get("cat") for event in trace["traceEvents"]}
        assert "globe" in cats

    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    def test_fixed_and_timeout_default_to_the_serve_batch(self, policy):
        """Without ``batch``, fixed and timeout clusters run at the
        latency-bounded batch ``serve`` picks for the same workload and
        SLO."""
        scenario = GlobalScenario(policy=policy)
        world = next(r for r in repro.run(scenario).rows if r["section"] == "global")
        assert np.isfinite([world["p50_seconds"], world["p99_seconds"]]).all()
        assert world["p50_seconds"] <= world["p99_seconds"]
        for cluster in build_topology(scenario).clusters:
            serve = repro.run(repro.ServeScenario(
                workload=scenario.workload, platform=cluster.spec.platform.kind,
                slo_ms=scenario.slo_ms, policy=policy, loads=(0.5,), requests=500,
            ))
            assert cluster.spec.batch_size == serve.metadata["resolved_batch"]
            assert cluster.spec.max_batch() == serve.metadata["max_batch"]

    def test_adaptive_clusters_keep_no_batch_or_timeout(self):
        """An adaptive cluster sizes its own batches and has no timeout:
        both fields leave every cluster's spec, each is named in a note,
        and the world runs as it does without them."""
        given = small_world(rate=2000.0, policy="adaptive", batch=64, timeout_ms=1.0)
        without = given.replace(batch=None, timeout_ms=None)
        for cluster, plain in zip(
            build_topology(given).clusters, build_topology(without).clusters
        ):
            assert (cluster.spec.batch_size, cluster.spec.timeout_seconds) == (None, None)
            assert cluster.spec.max_batch() == plain.spec.max_batch() == 512
        result, reference = repro.run(given), repro.run(without)
        assert result.notes == (
            "(batch 64 ignored: the adaptive policy does not read it)",
            "(timeout_ms 1 ignored: the adaptive policy does not read it)",
        )
        assert reference.notes == ()
        assert (result.rows, result.text) == (reference.rows, reference.text)

    def test_global_serving_experiment_registered(self):
        from repro.analysis import EXPERIMENTS

        assert "global_serving" in EXPERIMENTS


class TestGlobeObs:
    def test_counters_and_spans(self):
        """One simulated-time span per evaluated (cluster, bin) cell,
        tagged with the regime that priced it."""
        with obs.capture() as tracer:
            result = simulate_global(small_world(rate=9000.0))
            spans = tracer.snapshot()
        assert "globe.simulate" in {s.name for s in spans}
        cells = Counter(
            s.args["backend"] for s in spans
            if s.cat == "globe" and s.pid == obs.SIM_PID
        )
        assert cells == result.backend_cells and sum(cells.values()) > 0
        assert result.total_requests > 0

    def test_disabled_obs_records_nothing(self):
        simulate_global(small_world(rate=2000.0))
        assert obs.TRACER.events == []
