"""The scenario API: JSON round-trips, validation, facade, registry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    ClusterSpec,
    DatacenterScenario,
    Experiment,
    GlobalScenario,
    LLMServeScenario,
    ProfileScenario,
    RegionSpec,
    ScenarioResult,
    ScenarioSpec,
    ServeScenario,
    SpecError,
    SweepSpec,
    jsonable,
)
from repro.nn.workloads import WORKLOAD_NAMES

finite = dict(allow_nan=False, allow_infinity=False)

workload_st = st.sampled_from(WORKLOAD_NAMES)
loads_st = st.lists(
    st.floats(min_value=0.05, max_value=1.5, **finite), min_size=1, max_size=5
).map(tuple)

serve_st = st.builds(
    ServeScenario,
    workload=workload_st,
    platform=st.sampled_from(["cpu", "gpu", "tpu"]),
    replicas=st.integers(1, 16),
    slo_ms=st.floats(min_value=0.5, max_value=100.0, **finite),
    policy=st.sampled_from(["adaptive", "fixed", "timeout"]),
    batch=st.none() | st.integers(1, 512),
    timeout_ms=st.none() | st.floats(min_value=0.1, max_value=50.0, **finite),
    router=st.sampled_from(["round_robin", "jsq"]),
    loads=loads_st,
    requests=st.integers(1, 10**6),
    seed=st.integers(0, 2**31 - 1),
    traffic=st.sampled_from(["poisson", "diurnal", "uniform"]),
    diurnal_swing=st.floats(min_value=0.0, max_value=0.99, **finite),
    diurnal_period_s=st.none() | st.floats(min_value=0.1, max_value=1e4, **finite),
    trace=st.none() | st.just("trace.txt"),
)

datacenter_st = st.builds(
    DatacenterScenario,
    workload=workload_st,
    slo_ms=st.floats(min_value=0.5, max_value=100.0, **finite),
    platforms=st.lists(
        st.sampled_from(["cpu", "gpu", "tpu"]), min_size=1, max_size=3, unique=True
    ).map(tuple),
    rate=st.floats(min_value=1.0, max_value=1e6, **finite),
    swing=st.floats(min_value=0.0, max_value=0.99, **finite),
    requests=st.integers(1, 10**6),
    max_replicas=st.integers(1, 128),
    router=st.sampled_from(["round_robin", "jsq"]),
    seed=st.integers(0, 2**31 - 1),
    usd_per_kwh=st.floats(min_value=0.01, max_value=1.0, **finite),
    pue=st.floats(min_value=1.0, max_value=3.0, **finite),
    capex_per_watt=st.floats(min_value=0.1, max_value=100.0, **finite),
)

profile_st = st.builds(
    ProfileScenario,
    workload=workload_st,
    weight_bits=st.sampled_from([8, 16]),
    activation_bits=st.sampled_from([8, 16]),
)

any_scenario_st = st.one_of(serve_st, datacenter_st, profile_st)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(any_scenario_st)
    def test_dict_and_json_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # The wire form must already be JSON-native.
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    @settings(max_examples=20, deadline=None)
    @given(serve_st, st.lists(st.integers(1, 8), min_size=1, max_size=3,
                              unique=True))
    def test_sweep_round_trip(self, base, replicas):
        sweep = SweepSpec(base=base, axes={"replicas": tuple(replicas)})
        assert ScenarioSpec.from_dict(sweep.to_dict()) == sweep
        assert ScenarioSpec.from_json(sweep.to_json()) == sweep
        assert len(sweep.expand()) == len(replicas)

    def test_from_dict_accepts_json_lists(self):
        spec = ScenarioSpec.from_dict(
            {"kind": "serve", "loads": [0.5, 0.9], "workload": "MLP0"}
        )
        assert spec.loads == (0.5, 0.9)
        assert spec.workload == "mlp0"  # normalized like the legacy CLI

    def test_subclass_from_dict_checks_kind(self):
        with pytest.raises(SpecError, match="does not match"):
            ServeScenario.from_dict({"kind": "datacenter"})

    def test_sweep_axes_order_is_canonical(self):
        base = ServeScenario()
        a = SweepSpec(base=base, axes={"replicas": (1, 2), "seed": (0, 1)})
        b = SweepSpec(base=base, axes={"seed": (0, 1), "replicas": (1, 2)})
        assert a == b
        assert [o for o, _ in a.expand()] == [
            {"replicas": 1, "seed": 0}, {"replicas": 1, "seed": 1},
            {"replicas": 2, "seed": 0}, {"replicas": 2, "seed": 1},
        ]


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: ServeScenario(workload="resnet"), "unknown workload"),
        (lambda: ServeScenario(platform="fpga"), "platform must be one of"),
        (lambda: ServeScenario(replicas=0), "replicas must be a positive"),
        (lambda: ServeScenario(slo_ms=-1), "slo_ms must be a positive"),
        (lambda: ServeScenario(policy="greedy"), "policy must be one of"),
        (lambda: ServeScenario(loads=()), "loads must be a non-empty"),
        (lambda: ServeScenario(loads=("fast",)), "loads entries must be numbers"),
        (lambda: ServeScenario(traffic="bursty"), "traffic must be one of"),
        (lambda: ServeScenario(diurnal_swing=1.5), "diurnal_swing must be in"),
        (lambda: ProfileScenario(workload="mlp0", weight_bits=4),
         "weight_bits must be one of"),
        (lambda: DatacenterScenario(platforms=("cpu", "xpu")),
         "platforms must be a subset"),
        (lambda: DatacenterScenario(platforms=()), "platforms must be a non-empty"),
        (lambda: DatacenterScenario(pue=0.5), "pue must be >= 1.0"),
        (lambda: DatacenterScenario(swing=1.0), "swing must be in"),
        (lambda: ServeScenario(loads=(float("nan"),)), "loads must be finite positive"),
        (lambda: ServeScenario(loads=(0.5, 0.0)), "loads must be finite positive"),
        (lambda: ServeScenario(loads=(-0.5,)), "loads must be finite positive"),
        (lambda: ServeScenario(loads=(float("inf"),)), "loads must be finite positive"),
        (lambda: ServeScenario(loads=(True,)), "loads entries must be numbers, got True"),
        (lambda: LLMServeScenario(loads=(float("inf"),)), "loads must be finite positive"),
        (lambda: LLMServeScenario(loads=(float("nan"),)), "loads must be finite positive"),
        (lambda: LLMServeScenario(loads=(0,)), "loads must be finite positive"),
        (lambda: ScenarioSpec.from_dict({"kind": "serve", "replicas": True}),
         "replicas must be a positive integer"),
        (lambda: ServeScenario(requests=True), "requests must be a positive integer"),
        (lambda: ServeScenario(slo_ms=True), "slo_ms must be a positive number"),
        (lambda: ScenarioSpec.from_dict({"kind": "serve", "seed": True}),
         "seed must be a non-negative integer"),
        (lambda: DatacenterScenario(seed=False), "seed must be a non-negative integer"),
        (lambda: LLMServeScenario(seed=True), "seed must be a non-negative integer"),
        (lambda: LLMServeScenario(max_batch=True), "max_batch must be a positive integer"),
        # Infinite or NaN numbers never reach the engines.
        (lambda: ServeScenario(slo_ms=float("inf")),
         "slo_ms must be a positive number, got inf"),
        (lambda: DatacenterScenario(rate=float("inf")), "rate must be a positive number"),
        (lambda: DatacenterScenario(usd_per_kwh=float("inf")),
         "usd_per_kwh must be a positive number"),
        (lambda: DatacenterScenario(pue=float("inf")), "pue must be >= 1.0 and finite"),
        (lambda: GlobalScenario(duration_s=float("inf")),
         "duration_s must be a positive number"),
        (lambda: GlobalScenario(default_rtt_ms=float("inf")),
         "default_rtt_ms must be a finite non-negative number"),
        (lambda: GlobalScenario(rtt_ms=(("americas", "asia", float("inf")),)),
         "each rtt_ms entry must be"),
        (lambda: ClusterSpec(name="c", cost=float("inf")), "cluster cost must be a positive"),
        (lambda: RegionSpec(name="r", phase=float("nan")), "phase must be a finite number"),
        (lambda: LLMServeScenario(kv_reserve_mib=float("inf")),
         "kv_reserve_mib must be a finite non-negative number"),
        (lambda: LLMServeScenario(transfer_ms=float("inf")),
         "transfer_ms must be a finite non-negative number"),
        # A JSON true is not a number, and an integer too large for a
        # float is not finite.
        (lambda: ScenarioSpec.from_dict({"kind": "datacenter", "pue": True}),
         r"pue must be >= 1.0 and finite.*got True"),
        (lambda: ScenarioSpec.from_dict({"kind": "globe", "spill_threshold": True}),
         r"spill_threshold must be in.*got True"),
        (lambda: ScenarioSpec.from_dict({"kind": "serve", "slo_ms": 10**400}),
         r"slo_ms must be a positive number.*got 10{400}$"),
        (lambda: ScenarioSpec.from_dict({"kind": "llm", "slo_tpot_ms": 10**400}),
         r"slo_tpot_ms must be a positive number.*got 10{400}$"),
        (lambda: ScenarioSpec.from_dict({"kind": "globe", "default_rtt_ms": 10**400}),
         r"default_rtt_ms must be a finite.*got 10{400}$"),
        (lambda: ScenarioSpec.from_dict({"kind": "serve", "loads": [10**400]}),
         "loads entries must fit in a float"),
        # Integer fields size and index int64 arrays.
        (lambda: ServeScenario(requests=10**400),
         r"requests must fit in a signed 64-bit integer.*got 10{400}$"),
        (lambda: ServeScenario(requests=2**63),
         r"requests must fit in a signed 64-bit integer \(at most 2\*\*63 - 1\), "
         r"got 9223372036854775808$"),
        (lambda: ServeScenario(replicas=10**30),
         "replicas must fit in a signed 64-bit integer"),
        (lambda: ServeScenario(batch=2**63), "batch must fit in a signed 64-bit integer"),
        (lambda: DatacenterScenario(max_replicas=2**63),
         "max_replicas must fit in a signed 64-bit integer"),
        (lambda: ScenarioSpec.from_dict({"kind": "llm", "chips": 2**64}),
         "chips must fit in a signed 64-bit integer"),
        # The LLM engine builds every chip of its pools.
        (lambda: ScenarioSpec.from_dict({"kind": "llm", "chips": 10**12}),
         r"^chips must be at most 4,096 \(the LLM engine simulates every chip\), "
         r"got 1000000000000$"),
        (lambda: ScenarioSpec.from_dict({"kind": "llm", "prefill_chips": 4097}),
         r"^prefill_chips must be at most 4,096 .*got 4097$"),
        (lambda: ClusterSpec(name="c", replicas=2**63),
         "cluster replicas must fit in a signed 64-bit integer"),
        # The fleet builds and steps every replica.
        (lambda: ServeScenario(replicas=4097),
         r"^replicas must be at most 4,096 \(the fleet simulates every replica\), "
         r"got 4097$"),
        (lambda: ScenarioSpec.from_dict({"kind": "serve", "replicas": 10**9}),
         r"^replicas must be at most 4,096 .*got 1000000000$"),
        (lambda: DatacenterScenario(max_replicas=4097),
         r"^max_replicas must be at most 4,096 \(the fleet simulates every replica\), "
         r"got 4097$"),
        (lambda: ClusterSpec(name="c", replicas=4097),
         r"^cluster replicas must be at most 4,096 \(the fleet simulates every "
         r"replica\), got 4097$"),
    ])
    def test_actionable_messages(self, build, message):
        with pytest.raises(SpecError, match=message):
            build()

    def test_integer_fields_accept_the_int64_maximum(self):
        assert ServeScenario(requests=2**63 - 1).requests == 2**63 - 1

    def test_llm_pools_accept_the_chip_ceiling(self):
        from repro.api.spec import _MAX_REPLICAS

        spec = ScenarioSpec.from_dict(
            {"kind": "llm", "chips": _MAX_REPLICAS, "prefill_chips": _MAX_REPLICAS}
        )
        assert spec.chips == spec.prefill_chips == _MAX_REPLICAS == 4096

    def test_fleets_accept_the_replica_ceiling(self):
        assert ServeScenario(replicas=4096).replicas == 4096
        assert DatacenterScenario(max_replicas=4096).max_replicas == 4096
        assert ClusterSpec(name="c", replicas=4096).replicas == 4096

    def test_from_dict_requires_kind(self):
        with pytest.raises(SpecError, match="needs a string 'kind'"):
            ScenarioSpec.from_dict({"workload": "mlp0"})

    def test_from_dict_rejects_unhashable_kind(self):
        with pytest.raises(SpecError, match="needs a string 'kind'"):
            ScenarioSpec.from_dict({"kind": ["serve"]})

    def test_from_dict_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(SpecError, match="unknown scenario kind 'train'"):
            ScenarioSpec.from_dict({"kind": "train"})

    def test_from_dict_unknown_field_lists_valid_fields(self):
        with pytest.raises(SpecError, match="unknown field.*batch_size"):
            ScenarioSpec.from_dict({"kind": "serve", "batch_size": 8})

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(SpecError, match="not a field"):
            SweepSpec(base=ServeScenario(), axes={"bogus": (1,)})

    def test_sweep_rejects_nested_sweep(self):
        inner = SweepSpec(base=ServeScenario(), axes={"replicas": (1,)})
        with pytest.raises(SpecError, match="cannot nest"):
            SweepSpec(base=inner, axes={"replicas": (1,)})

    def test_sweep_expansion_validates_combinations(self):
        sweep = SweepSpec(base=ServeScenario(), axes={"replicas": (1, 0)})
        with pytest.raises(SpecError, match="replicas"):
            sweep.expand()

    def test_bad_json_mentions_the_file(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        with pytest.raises(SpecError, match="broken.json"):
            repro.load_scenario(str(config))


class TestRunFacade:
    def test_serve_returns_structured_rows(self):
        spec = ServeScenario(
            workload="mlp0", platform="cpu", loads=(0.5,), requests=400
        )
        result = repro.run(spec)
        assert isinstance(result, ScenarioResult)
        assert result.kind == "serve"
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["meets_slo"] in (True, False)
        assert row["p99_seconds"] > 0
        assert result.metadata["scenario"] == spec.to_dict()
        assert "p99" in result.render()
        json.dumps(result.to_dict())  # JSON-safe end to end

    def test_run_is_deterministic(self):
        spec = ServeScenario(
            workload="mlp0", platform="cpu", loads=(0.5,), requests=400, seed=3
        )
        assert repro.run(spec).to_dict() == repro.run(spec).to_dict()

    def test_profile_scenario(self):
        result = repro.run(ProfileScenario(workload="mlp0"))
        assert result.rows[0]["tera_ops"] > 0
        assert "Unified Buffer" in result.render()

    def test_sweep_annotates_rows_with_overrides(self):
        sweep = SweepSpec(
            base=ServeScenario(
                workload="mlp0", platform="cpu", loads=(0.5,), requests=300
            ),
            axes={"replicas": (1, 2)},
        )
        result = repro.run(sweep)
        assert [row["sweep"]["replicas"] for row in result.rows] == [1, 2]
        assert result.metadata["points"] == 2

    def test_run_rejects_non_scenarios(self):
        with pytest.raises(SpecError, match="cannot run"):
            repro.run("serve")

    def test_adaptive_serve_names_an_ignored_batch(self):
        """An adaptive batcher sizes its own batches: a given ``batch`` is
        named in a note, no batch is resolved, and the run equals the
        run without it."""
        plain = ServeScenario(policy="adaptive", loads=(0.5,), requests=500)
        given, without = repro.run(plain.replace(batch=64)), repro.run(plain)
        assert given.metadata["resolved_batch"] is None
        assert given.metadata["max_batch"] == without.metadata["max_batch"] == 512
        assert given.notes == ("(batch 64 ignored: the adaptive policy does not read it)",)
        assert (given.rows, given.text) == (without.rows, without.text)

    def test_fixed_serve_names_an_ignored_timeout(self):
        plain = ServeScenario(policy="fixed", loads=(0.5,), requests=500)
        given, without = repro.run(plain.replace(timeout_ms=1.0)), repro.run(plain)
        assert given.notes == (
            ("(timeout_ms 1 ignored: the fixed policy does not read it)",) + without.notes
        )
        assert given.metadata["resolved_batch"] == without.metadata["resolved_batch"]
        assert (given.rows, given.text) == (without.rows, without.text)


class TestExperimentRegistry:
    def test_entries_are_introspectable_experiments(self):
        from repro.analysis import EXPERIMENTS

        for exp_id, exp in EXPERIMENTS.items():
            assert isinstance(exp, Experiment)
            assert exp.exp_id == exp_id
            description = exp.describe()
            assert description["title"]
            json.dumps(description)

    def test_parameterized_experiments_carry_specs(self):
        from repro.analysis import EXPERIMENTS

        assert isinstance(EXPERIMENTS["serving_sweep"].scenario, ServeScenario)
        assert isinstance(
            EXPERIMENTS["datacenter_provisioning"].scenario, DatacenterScenario
        )
        assert EXPERIMENTS["table1"].scenario is None

    def test_with_scenario_checks_kind(self):
        from repro.analysis import EXPERIMENTS

        with pytest.raises(SpecError, match="expects a 'serve' scenario"):
            EXPERIMENTS["serving_sweep"].with_scenario(DatacenterScenario())
        with pytest.raises(SpecError, match="fixed paper reproduction"):
            EXPERIMENTS["table1"].with_scenario(ServeScenario())

    def test_with_scenario_rejects_unhonored_overrides(self):
        # serving_sweep sweeps platform/replicas internally: overriding
        # them must be an error, not silently mislabeled results.
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["serving_sweep"]
        default = exp.scenario
        with pytest.raises(SpecError, match="does not honor platform"):
            exp.with_scenario(default.replace(platform="cpu"))
        # A trace replay has no operating curve to sweep.
        with pytest.raises(SpecError, match="does not honor trace"):
            exp.with_scenario(default.replace(trace="trace.txt"))
        # Honored fields pass the gate (small run keeps the test fast).
        result = exp.with_scenario(default.replace(requests=500, loads=(0.5,)))
        assert result.measured["cpu_max_ips_under_slo"] >= 0


class TestExperimentsThroughRun:
    """The parameterized experiments execute their specs through
    ``repro.run`` and measure from its result, so an experiment and a
    direct run of the same spec agree exactly."""

    @pytest.mark.parametrize("policy, batch", [
        ("fixed", None), ("timeout", None), ("fixed", 64),
    ])
    def test_serving_sweep_runs_every_batch_policy(self, policy, batch):
        # ``policy`` and ``batch`` are honored: a fixed or timeout sweep
        # serves at the given batch, or without one at the
        # latency-bounded batch, as ``repro.run`` does.
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["serving_sweep"]
        small = exp.scenario.replace(
            policy=policy, batch=batch, requests=500, loads=(0.5,)
        )
        measured = exp.with_scenario(small).measured
        tpu = repro.run(small.replace(platform="tpu", router="round_robin"))
        assert measured["tpu_adaptive_batch"] == tpu.metadata["resolved_batch"]
        if batch is not None:
            assert measured["tpu_adaptive_batch"] == batch
        assert measured["tpu_x4_max_ips"] > 0

    def test_serving_sweep_matches_run(self):
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["serving_sweep"]
        small = exp.scenario.replace(requests=500, loads=(0.5,))
        measured = exp.with_scenario(small).measured
        for kind in ("cpu", "gpu", "tpu"):
            best = repro.run(
                small.replace(platform=kind, replicas=1, router="round_robin")
            ).metadata["best"]
            assert best is not None
            assert measured[f"{kind}_max_ips_under_slo"] == best["throughput_rps"]

    def test_datacenter_provisioning_matches_run(self):
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["datacenter_provisioning"]
        small = exp.scenario.replace(requests=2000, max_replicas=8)
        assert exp.with_scenario(small).text == repro.run(small).render()

    def test_llm_operating_curve_matches_run(self):
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["llm_operating_curve"]
        small = exp.scenario.replace(requests=200, loads=(0.5, 0.9))
        measured = exp.with_scenario(small).measured
        rows = repro.run(small.replace(scheduler="continuous")).rows
        assert measured["continuous_goodput_per_chip"] == [
            row["goodput_tokens_per_second_per_chip"] for row in rows
        ]


class TestReportIsolation:
    def test_one_failure_does_not_kill_the_report(self, monkeypatch):
        from repro.analysis import report
        from repro.analysis.common import ExperimentResult

        def boom():
            raise RuntimeError("kaboom")

        fake = {
            "ok": Experiment("ok", "works", lambda: ExperimentResult(
                exp_id="ok", title="works", text="x" * 60
            )),
            "bad": Experiment("bad", "explodes", boom),
        }
        monkeypatch.setattr(report, "EXPERIMENTS", fake)
        outcomes = report.run_all(verbose=False)
        assert outcomes["ok"].ok
        assert not outcomes["bad"].ok
        assert "kaboom" in outcomes["bad"].error
        markdown = report.render_markdown(outcomes)
        assert "## ok: works" in markdown
        assert "## bad: FAILED" in markdown
        assert "kaboom" in markdown

    def test_parallel_subset_run(self, tmp_path):
        from repro.analysis.report import write_report

        target = tmp_path / "subset.md"
        outcomes = write_report(
            str(target), exp_ids=["table1", "table2"], jobs=2, verbose=False
        )
        assert [o.exp_id for o in outcomes.values()] == ["table1", "table2"]
        assert all(o.ok for o in outcomes.values())
        text = target.read_text()
        assert "## table1" in text and "## table2" in text

    def test_unknown_subset_id_is_actionable(self):
        from repro.analysis.report import run_all

        with pytest.raises(ValueError, match="unknown experiment"):
            run_all(exp_ids=["table99"], verbose=False)


class TestJsonable:
    def test_numpy_and_tuple_scrubbing(self):
        np = pytest.importorskip("numpy")
        value = {
            ("TPU/CPU", "total"): (np.float64(1.5), np.bool_(True)),
            "n": np.int64(3),
        }
        scrubbed = jsonable(value)
        assert scrubbed == {"('TPU/CPU', 'total')": [1.5, True], "n": 3}
        json.dumps(scrubbed)

    def test_experiment_result_to_dict_is_json_safe(self):
        from repro.analysis import EXPERIMENTS

        dumped = EXPERIMENTS["table6"]().to_dict()
        json.dumps(dumped)
        assert dumped["exp_id"] == "table6"
        assert dumped["measured"]
