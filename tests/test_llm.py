"""repro.serving.continuous: invariants, reference validation, specs, CLI.

The anchor tests mirror ``tests/test_globe.py``: on traces small enough
to replay per-request, the iteration-level engine's finish times must
match the reference event simulation within ``LLM_VALIDATION_RTOL`` for
both schedulers.  Around that sit the conservation invariants (every
admitted request emits exactly its decode length even under KV-eviction
pressure), cross-process seed determinism, the KV accounting closed
forms, the spec surface, and the CLI.  The engine's per-iteration
bookkeeping is pinned bit for bit to the per-token oracle in
``tests/oracles.py``, the only bit-exact check for disaggregated mode.
"""

import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import repro
from repro import obs
from repro.__main__ import main
from repro.api import LLMServeScenario, ScenarioSpec, SpecError
from repro.api.spec import load_scenario
from repro.core.config import TPU_V1
from repro.datacenter.llm_pools import CONTROL_INTERVAL_S, PoolAutoscaler, pool_controllers
from repro.nn.workloads import build_workload
from repro.platforms.kv import (
    DecodeTiming,
    kv_bytes_per_token,
    kv_capacity_tokens,
    kv_transfer_seconds,
)
from repro.serving.continuous import (
    LLM_VALIDATION_RTOL,
    ContinuousBatchingSim,
    build_llm_config,
    fleet_capacity_tokens_per_s,
    llm_row,
    run_llm_point,
    sample_llm_requests,
)
from repro.serving.llm_reference import simulate_reference
from tests import oracles


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.TRACER.clear()
    obs.TRACER.enabled = False
    yield
    obs.TRACER.clear()
    obs.TRACER.enabled = False


def scenario(**overrides):
    """A one-chip trace small enough for the reference replay."""
    fields = dict(
        chips=1, max_batch=16, prompt_tokens=64, decode_tokens=32,
        requests=300, loads=(0.8,), seed=3,
    )
    fields.update(overrides)
    return LLMServeScenario(**fields)


def run_trace(spec):
    cfg = build_llm_config(spec)
    capacity = fleet_capacity_tokens_per_s(
        cfg, spec.prompt_tokens, spec.decode_tokens
    )
    rate = spec.loads[0] * capacity / spec.decode_tokens
    arrivals, prompts, decodes = sample_llm_requests(
        spec.requests, rate, spec.prompt_tokens, spec.decode_tokens, spec.seed
    )
    return cfg, arrivals, prompts, decodes


class TestKVAccounting:
    def test_bytes_per_token_is_two_embed_dims(self):
        model = build_workload("gpt_s")
        # K and V, one int8 byte each, per attention layer's embed dim.
        assert kv_bytes_per_token(model) == 2 * 512 * 6

    def test_capacity_fits_in_unified_buffer(self):
        model = build_workload("gpt_s")
        capacity = kv_capacity_tokens(model, TPU_V1)
        used = capacity * kv_bytes_per_token(model)
        assert used <= TPU_V1.unified_buffer_bytes
        assert capacity == (TPU_V1.unified_buffer_bytes - 2 * 2**20) // 6144

    def test_non_transformer_rejected(self):
        with pytest.raises(ValueError, match="no attention"):
            kv_bytes_per_token(build_workload("mlp0"))

    def test_transfer_seconds(self):
        # 1000 tokens * 6144 B over 12.5 GB/s plus one RTT.
        got = kv_transfer_seconds(1000, 6144, 12.5e9, rtt_s=2e-4)
        assert got == pytest.approx(2e-4 + 1000 * 6144 / 12.5e9)

    def test_decode_iteration_is_weight_bound(self):
        model = build_workload("gpt_s")
        timing = DecodeTiming.for_model(model, TPU_V1)
        # Small batches stream 18.9M int8 weights at 34 GB/s; compute
        # is orders of magnitude away from the 92 TOPS roof.
        step = timing.iteration_seconds(8, 8 * 96)
        assert step == pytest.approx(
            timing.weight_stream_seconds + timing.host_overhead_seconds
        )
        assert timing.iteration_seconds(0, 0) == 0.0

    def test_prefill_macs_quadratic_in_context(self):
        timing = DecodeTiming.for_model(build_workload("gpt_s"), TPU_V1)
        assert timing.prefill_macs(64) > 64 * timing.fixed_macs_per_token


class TestConservation:
    def test_every_request_emits_exactly_its_decode_length(self):
        # Batch cap x max request footprint overshoots the KV capacity,
        # so admissions under load must trigger evictions.
        spec = scenario(max_batch=32, prompt_tokens=96, decode_tokens=48,
                        loads=(0.95,), requests=400)
        cfg, arrivals, prompts, decodes = run_trace(spec)
        result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        assert result.evictions > 0  # the trace actually exercised pressure
        np.testing.assert_array_equal(result.emitted, decodes)
        assert result.tokens == int(decodes.sum())
        assert np.all(np.isfinite(result.finish))
        assert np.all(result.first_token >= arrivals)
        assert np.all(result.finish >= result.first_token)

    def test_token_batch_sum_matches_total_tokens(self):
        spec = scenario()
        cfg, arrivals, prompts, decodes = run_trace(spec)
        result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        assert result.token_batch_sum == result.tokens

    def test_evicted_requests_reenter_and_finish(self):
        spec = scenario(max_batch=32, prompt_tokens=96, decode_tokens=48,
                        loads=(0.95,), requests=400)
        cfg, arrivals, prompts, decodes = run_trace(spec)
        result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        evicted = result.evictions_per_request > 0
        assert evicted.any()
        np.testing.assert_array_equal(result.emitted[evicted], decodes[evicted])

    def test_kv_peak_never_exceeds_capacity(self):
        for load in (0.5, 0.95):
            spec = scenario(loads=(load,))
            cfg, arrivals, prompts, decodes = run_trace(spec)
            result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
            assert 0 < result.kv_peak <= result.kv_capacity

    def test_disaggregated_conserves_too(self):
        spec = scenario(mode="disaggregated", chips=2, loads=(0.9,))
        cfg, arrivals, prompts, decodes = run_trace(spec)
        result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        np.testing.assert_array_equal(result.emitted, decodes)
        assert result.transfers >= spec.requests  # one per admission at least
        assert result.prefill_batches > 0


def assert_token_times_match(engine, ref):
    """First token, TPOT intervals, evictions and horizon agree with the
    replay as well as finish times (the replay's intervals are sorted)."""
    np.testing.assert_allclose(
        engine.first_token, ref["first_token"], rtol=LLM_VALIDATION_RTOL
    )
    np.testing.assert_allclose(
        np.sort(engine.tpot_intervals), ref["tpot_intervals"],
        rtol=LLM_VALIDATION_RTOL,
    )
    assert engine.evictions == ref["evictions"]
    assert engine.horizon == pytest.approx(ref["horizon"], rel=LLM_VALIDATION_RTOL)


class TestReferenceValidation:
    @pytest.mark.parametrize("scheduler", ["continuous", "fixed"])
    @pytest.mark.parametrize("load", [0.5, 0.9])
    def test_engine_matches_reference(self, scheduler, load):
        spec = scenario(scheduler=scheduler, loads=(load,))
        cfg, arrivals, prompts, decodes = run_trace(spec)
        engine = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        ref = simulate_reference(cfg, arrivals, prompts, decodes)
        rel = np.abs(engine.finish - ref["finish"]) / ref["finish"]
        assert float(rel.max()) <= LLM_VALIDATION_RTOL
        np.testing.assert_array_equal(engine.emitted, ref["emitted"])
        assert engine.tokens == ref["tokens"]
        assert_token_times_match(engine, ref)

    def test_multi_chip_matches_reference(self):
        spec = scenario(chips=2, loads=(0.85,))
        cfg, arrivals, prompts, decodes = run_trace(spec)
        engine = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        ref = simulate_reference(cfg, arrivals, prompts, decodes)
        rel = np.abs(engine.finish - ref["finish"]) / ref["finish"]
        assert float(rel.max()) <= LLM_VALIDATION_RTOL
        assert_token_times_match(engine, ref)

    def test_reference_rejects_disaggregated(self):
        cfg, *_ = run_trace(scenario(mode="disaggregated", chips=2))
        with pytest.raises(ValueError, match="aggregated"):
            simulate_reference(cfg, np.zeros(1), np.ones(1, int), np.ones(1, int))


def assert_same_result(got, want):
    """Every ``LLMRunResult`` field bit for bit: arrays with their dtype
    and shape, scalars with their type."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name)
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, (field.name, a, b)


#: The fleet shapes of the parity grid, as scenario overrides.
PARITY_MODES = {
    "aggregated": dict(mode="aggregated"),
    "disaggregated": dict(mode="disaggregated"),
    "autoscaled": dict(mode="disaggregated", autoscale=True, prefill_chips=2),
}


def parity_trace(scheduler, mode, *, chips=2, max_batch=32, kv_reserve_mib=2.0,
                 load=0.9, requests=120):
    """A config (with pool controllers when autoscaled) and its trace."""
    spec = scenario(
        scheduler=scheduler, chips=chips, max_batch=max_batch,
        prompt_tokens=96, decode_tokens=48, kv_reserve_mib=kv_reserve_mib,
        requests=requests, seed=chips * 10 + max_batch, **PARITY_MODES[mode],
    )
    controllers = {}
    if spec.autoscale:
        controllers = pool_controllers(
            build_llm_config(spec), spec.prompt_tokens, spec.decode_tokens
        )
    cfg = build_llm_config(spec, **controllers)
    capacity = fleet_capacity_tokens_per_s(
        cfg, spec.prompt_tokens, spec.decode_tokens
    )
    arrivals, prompts, decodes = sample_llm_requests(
        requests, load * capacity / spec.decode_tokens,
        spec.prompt_tokens, spec.decode_tokens, spec.seed,
    )
    return cfg, arrivals, prompts, decodes


def run_against_oracle(cfg, arrivals, prompts, decodes):
    """Run the engine and the per-token oracle; they must agree bit for bit."""
    got = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
    oracle = oracles.PerTokenLLMSim(cfg)
    want = oracle.run(arrivals, prompts, decodes)
    assert oracle.walked == want.tokens > 0  # the per-token path ran
    assert_same_result(got, want)
    return got


class TestOracleParity:
    """The per-iteration engine against the per-token oracle, bit for bit.

    A larger ``kv_reserve_mib`` shrinks the cache to ~850 tokens, so
    ``max_batch=32`` runs under constant eviction pressure.
    """

    @pytest.mark.parametrize("mode", sorted(PARITY_MODES))
    @pytest.mark.parametrize("scheduler", ["continuous", "fixed"])
    def test_grid_matches_oracle(self, scheduler, mode):
        evictions = 0
        for chips, max_batch, reserve, load in itertools.product(
            (1, 2, 3), (4, 32), (2.0, 19.0), (0.3, 0.9, 1.5)
        ):
            trace = parity_trace(scheduler, mode, chips=chips,
                                 max_batch=max_batch, kv_reserve_mib=reserve,
                                 load=load)
            evictions += run_against_oracle(*trace).evictions
        assert evictions > 0  # the grid exercised eviction

    @pytest.mark.parametrize(
        "kind", ["shuffled", "duplicates", "tick_aligned", "step_aligned"]
    )
    def test_arrival_order_edge_cases(self, kind):
        """Arrivals out of index order, on equal timestamps, or exactly on
        the times of other events: ties resolve as if every arrival had
        been scheduled first, in index order."""
        rng = np.random.default_rng(1)
        for scheduler, mode in itertools.product(
            ("continuous", "fixed"), ("aggregated", "autoscaled")
        ):
            cfg, arrivals, prompts, decodes = parity_trace(
                scheduler, mode, chips=3, kv_reserve_mib=19.0, load=1.2
            )
            if kind == "shuffled":
                arrivals = rng.permutation(arrivals)
            elif kind == "duplicates":
                # Groups of four equal timestamps, out of index order.
                arrivals = rng.permutation(np.repeat(arrivals[::4], 4))
            elif kind == "tick_aligned":
                # Bursts of 80 on the autoscaler's ticks (accumulated as the
                # controller accumulates them): a backlog above its 64 per
                # chip only if the burst is queued before the tick runs.
                ticks = [CONTROL_INTERVAL_S]
                while len(ticks) * 80 < arrivals.size:
                    ticks.append(ticks[-1] + ticks[0])
                arrivals = np.asarray(ticks)[np.arange(arrivals.size) // 80]
            else:
                # On the grid of weight-bound iteration and prefill ends.
                step = cfg.timing.iteration_seconds(1, 0)
                grid = [0.0]
                while grid[-1] < arrivals.max():
                    grid.append(grid[-1] + step)
                arrivals = np.asarray(grid)[np.searchsorted(grid, arrivals)]
            run_against_oracle(cfg, arrivals, prompts, decodes)

    @pytest.mark.parametrize("mode", ["aggregated", "autoscaled"])
    def test_spans_match_oracle(self, mode):
        cfg, arrivals, prompts, decodes = parity_trace(
            "continuous", mode, chips=3, kv_reserve_mib=19.0
        )
        seen = []
        for sim in (ContinuousBatchingSim(cfg), oracles.PerTokenLLMSim(cfg)):
            with obs.capture() as tracer:
                result = sim.run(arrivals, prompts, decodes)
            spans = Counter(
                (s.name, s.ts, s.dur, s.tid, tuple(sorted(s.args.items())))
                for s in tracer.snapshot()
                if s.name.startswith(("iter b", "prefill b"))
            )
            seen.append((result, spans))
        (got, got_spans), (want, want_spans) = seen
        assert sim.walked == want.tokens == decodes.sum()  # the per-token path ran
        assert_same_result(got, want)
        assert got_spans == want_spans and sum(want_spans.values()) > 0


class TestTraceValidation:
    """``run`` checks the arrays it is handed directly, without a spec."""

    def trace(self):
        cfg, arrivals, prompts, decodes = run_trace(scenario(requests=5))
        return ContinuousBatchingSim(cfg), arrivals, prompts, decodes

    def test_nan_arrival(self):
        sim, arrivals, prompts, decodes = self.trace()
        arrivals[2] = np.nan
        with pytest.raises(ValueError, match=r"arrivals\[2\] must be a finite time"):
            sim.run(arrivals, prompts, decodes)

    def test_negative_arrival(self):
        sim, arrivals, prompts, decodes = self.trace()
        arrivals[0] = -1.0
        with pytest.raises(ValueError, match=r"arrivals\[0\] must be a finite time >= 0"):
            sim.run(arrivals, prompts, decodes)

    def test_zero_decode_length(self):
        sim, arrivals, prompts, decodes = self.trace()
        decodes[3] = 0
        with pytest.raises(ValueError, match=r"decodes\[3\] must be an integer >= 1"):
            sim.run(arrivals, prompts, decodes)

    def test_request_over_the_kv_budget(self):
        sim, arrivals, prompts, decodes = self.trace()
        prompts[1] = 5000
        with pytest.raises(ValueError, match="one request can exceed the KV budget: .*request 1"):
            sim.run(arrivals, prompts, decodes)

    def test_prompts_shorter_than_arrivals(self):
        sim, arrivals, prompts, decodes = self.trace()
        with pytest.raises(ValueError, match="prompts has 4 entries but arrivals has 5"):
            sim.run(arrivals, prompts[:-1], decodes)

    def test_prompts_longer_than_arrivals(self):
        sim, arrivals, prompts, decodes = self.trace()
        with pytest.raises(ValueError, match="prompts has 6 entries but arrivals has 5"):
            sim.run(arrivals, np.append(prompts, 64), decodes)

    def test_empty_trace(self):
        sim, *_ = self.trace()
        empty = np.empty(0)
        with pytest.raises(ValueError, match="at least one request"):
            sim.run(empty, empty.astype(int), empty.astype(int))

    def test_non_integer_lengths(self):
        sim, arrivals, prompts, decodes = self.trace()
        with pytest.raises(ValueError, match="prompts must hold integers, got dtype float64"):
            sim.run(arrivals, prompts + 0.5, decodes)
        with pytest.raises(ValueError, match="decodes must hold integers, got dtype bool"):
            sim.run(arrivals, prompts, decodes > 0)


class TestSchedulers:
    def test_continuous_beats_fixed_at_equal_p99(self):
        spec = scenario(chips=2, max_batch=32, prompt_tokens=96,
                        decode_tokens=48, requests=800, loads=(0.9,))
        rows = {}
        for scheduler in ("continuous", "fixed"):
            cfg, arrivals, prompts, decodes = run_trace(
                spec.replace(scheduler=scheduler)
            )
            result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
            rows[scheduler] = llm_row(
                result, load=0.9, rate_rps=1.0,
                slo_tpot_s=spec.slo_tpot_seconds,
                slo_ttft_s=spec.slo_ttft_seconds,
            )
        cont, fixed = rows["continuous"], rows["fixed"]
        assert cont["goodput_tokens_per_second_per_chip"] > (
            fixed["goodput_tokens_per_second_per_chip"]
        )
        assert cont["p99_tpot_ms"] <= fixed["p99_tpot_ms"] * 1.01

    def test_unknown_scheduler_and_mode_rejected(self):
        cfg, *_ = run_trace(scenario())
        from dataclasses import replace

        with pytest.raises(ValueError, match="scheduler"):
            ContinuousBatchingSim(replace(cfg, scheduler="clairvoyant"))
        with pytest.raises(ValueError, match="mode"):
            ContinuousBatchingSim(replace(cfg, mode="quantum"))

    def test_oversized_request_rejected_at_build(self):
        with pytest.raises(ValueError, match="KV budget"):
            build_llm_config(scenario(prompt_tokens=4000, decode_tokens=64))


class TestAutoscaledPools:
    def test_pools_scale_up_under_load(self):
        spec = scenario(mode="disaggregated", chips=4, prefill_chips=2,
                        loads=(0.9,), autoscale=True)
        base = build_llm_config(spec)
        controllers = pool_controllers(base, spec.prompt_tokens, spec.decode_tokens)
        cfg = build_llm_config(spec, **controllers)
        capacity = fleet_capacity_tokens_per_s(
            cfg, spec.prompt_tokens, spec.decode_tokens
        )
        rate = 0.9 * capacity / spec.decode_tokens
        result = run_llm_point(
            cfg, rate_rps=rate, requests=400,
            prompt_mean=spec.prompt_tokens, decode_mean=spec.decode_tokens,
            seed=0,
        )
        np.testing.assert_array_equal(result.emitted, result.decodes)
        row = llm_row(result, load=0.9, rate_rps=rate,
                      slo_tpot_s=spec.slo_tpot_seconds,
                      slo_ttft_s=spec.slo_ttft_seconds)
        # Started from one chip per pool, grew toward the fleet under load,
        # and never billed more chips than exist.
        assert 1.0 < row["mean_decode_chips"] <= 4.0
        assert result.decode_chip_seconds < 4.0 * result.horizon

    def test_autoscaler_desired_tracks_rate(self):
        ctl = PoolAutoscaler("decode", chip_rps=100.0)
        low = ctl.desired(1.0, queued=0, arrival_rate=50.0, active=1,
                          spinning=0, utilization=0.3)
        high = ctl.desired(2.0, queued=200, arrival_rate=500.0, active=1,
                           spinning=0, utilization=0.99)
        assert high > low >= 1

    def test_rejects_nonpositive_chip_rate(self):
        with pytest.raises(ValueError, match="chip_rps"):
            PoolAutoscaler("decode", chip_rps=0.0)


class TestDeterminism:
    def test_run_leaves_no_reference_cycle(self):
        """A finished simulator is freed by reference counting; one that
        waits for the cycle collector holds its run's memory meanwhile."""
        cfg, arrivals, prompts, decodes = parity_trace("continuous", "autoscaled")
        sim = ContinuousBatchingSim(cfg)
        sim.run(arrivals, prompts, decodes)
        alive = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert alive() is None
        finally:
            gc.enable()

    def test_same_seed_same_rows_in_process(self):
        spec = scenario()
        cfg, arrivals, prompts, decodes = run_trace(spec)
        a = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        b = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        np.testing.assert_array_equal(a.finish, b.finish)
        assert a.iterations == b.iterations

    def test_fresh_processes_agree_bit_for_bit(self, tmp_path):
        """Two interpreters with different hash seeds emit identical rows."""
        config = tmp_path / "llm.json"
        config.write_text(json.dumps({
            "kind": "llm", "chips": 1, "max_batch": 12,
            "prompt_tokens": 48, "decode_tokens": 24,
            "requests": 150, "loads": [0.8], "seed": 11,
        }))
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        outs = []
        for hashseed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "llm",
                 "--config", str(config), "--json"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src_dir,
                     "PYTHONHASHSEED": hashseed},
            )
            outs.append(json.loads(proc.stdout))
        assert outs[0]["rows"] == outs[1]["rows"]
        assert outs[0]["metadata"] == outs[1]["metadata"]


class TestSpecSurface:
    def test_round_trip(self):
        spec = LLMServeScenario(mode="disaggregated", chips=3, loads=(0.5,))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
        assert spec.to_dict()["kind"] == "llm"

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "llm", "requests": 77}))
        spec = load_scenario(str(path))
        assert isinstance(spec, LLMServeScenario)
        assert spec.requests == 77

    def test_validation_errors(self):
        with pytest.raises(SpecError, match="workload"):
            LLMServeScenario(workload="mlp0").validate()
        with pytest.raises(SpecError, match="scheduler"):
            LLMServeScenario(scheduler="magic").validate()
        with pytest.raises(SpecError, match="disaggregated"):
            LLMServeScenario(autoscale=True, mode="aggregated").validate()
        with pytest.raises(SpecError):
            LLMServeScenario(loads=(0.0,)).validate()

    def test_facade_runs_scenario(self):
        result = repro.run(scenario(requests=120))
        assert result.kind == "llm"
        assert len(result.rows) == 1
        assert result.rows[0]["tokens_per_second"] > 0
        dumped = json.loads(json.dumps(result.to_dict()))
        assert dumped == result.to_dict()


class TestCLI:
    def test_llm_command_json(self, capsys):
        rc = main([
            "llm", "--chips", "1", "--max-batch", "12",
            "--prompt-tokens", "48", "--decode-tokens", "24",
            "--requests", "150", "--loads", "0.8", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "llm"
        assert out["metadata"]["kv_capacity_tokens"] > 0

    def test_llm_command_rejects_bad_spec(self, capsys):
        rc = main(["llm", "--workload", "mlp0"])
        assert rc == 2
        assert "llm:" in capsys.readouterr().err

    def test_listed_in_registry(self, capsys):
        rc = main(["list", "--json"])
        assert rc == 0
        listing = json.loads(capsys.readouterr().out)
        assert "llm" in listing["scenario_kinds"]
        assert "llm_operating_curve" in listing["experiments"]


class TestObservability:
    def test_metrics_and_spans_emitted(self):
        """One ``iter b*`` span per decode iteration and one ``prefill b*``
        span per prefill batch, each carrying its batch size."""
        spec = scenario(requests=100, mode="disaggregated", chips=2)
        cfg, arrivals, prompts, decodes = run_trace(spec)
        with obs.capture() as tracer:
            result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        spans = tracer.snapshot()
        iters = [s for s in spans if s.name.startswith("iter b")]
        prefills = [s for s in spans if s.name.startswith("prefill b")]
        assert len(iters) == result.iterations > 0
        assert len(prefills) == result.prefill_batches > 0
        assert sum(s.args["batch"] for s in iters) == result.token_batch_sum
        assert result.tokens == decodes.sum() and result.transfers > 0

    def test_quiet_when_disabled(self):
        spec = scenario(requests=60)
        cfg, arrivals, prompts, decodes = run_trace(spec)
        ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
        assert obs.TRACER.snapshot() == []


class TestExperiment:
    def test_operating_curve_acceptance(self):
        from repro.analysis import llm as llm_exp

        small = LLMServeScenario(
            chips=2, max_batch=24, prompt_tokens=64, decode_tokens=32,
            requests=300, loads=(0.5, 0.9),
        )
        result = llm_exp.run(small)
        assert result.exp_id == "llm_operating_curve"
        measured = result.measured
        assert measured["continuous_beats_fixed"] is True
        assert measured["validation_rel_err_continuous"] <= LLM_VALIDATION_RTOL
        assert measured["validation_rel_err_fixed"] <= LLM_VALIDATION_RTOL
        assert len(measured["continuous_goodput_per_chip"]) == 2
        assert all(
            g >= 0 for g in measured["disaggregated_goodput_per_chip"]
        )
        assert "tok/s/chip" in result.text

    def test_registered(self):
        from repro.analysis import EXPERIMENTS

        exp = EXPERIMENTS["llm_operating_curve"]
        assert exp.scenario is not None
        assert "loads" in exp.honors


def test_sample_lengths_within_bounds():
    _, prompts, decodes = sample_llm_requests(500, 100.0, 64, 32, seed=7)
    assert prompts.min() >= 32 and prompts.max() <= 96
    assert decodes.min() >= 16 and decodes.max() <= 48
    arrivals, _, _ = sample_llm_requests(500, 100.0, 64, 32, seed=7)
    assert np.all(np.diff(arrivals) >= 0)


def test_llm_row_handles_empty_intervals():
    spec = scenario(requests=1, decode_tokens=2, loads=(0.1,))
    cfg, arrivals, prompts, decodes = run_trace(spec)
    result = ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)
    row = llm_row(result, load=0.1, rate_rps=1.0,
                  slo_tpot_s=1.0, slo_ttft_s=1.0)
    assert math.isfinite(row["p99_tpot_ms"])
