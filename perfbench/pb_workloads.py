"""The four benchmark workloads: op lists, set-up, and per-op output checks.

An op is one call a user of the simulator makes -- ``repro.run(spec)``,
or the layer's public class where a spec cannot carry the input (a fresh
``TPUDriver`` at a non-default batch, a ``Fleet`` over a given arrival
array, a ``ContinuousBatchingSim`` over a sampled request trace).  The op
list is a pure function of the workload seed: :func:`plan` returns plain
descriptors, and :func:`bind` turns each into an untimed ``prepare`` that
builds the inputs, a timed zero-argument call, and an untimed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

WORKLOADS = ("programs", "fleet_stream", "fleet_feedback", "llm_decode")

#: Seed at which the recorded response goldens apply.
DEFAULT_SEED = 0

#: Host seconds one round of each workload is sized for; a run measures
#: ``max(1, round(seconds / ROUND_SECONDS))`` rounds.
ROUND_SECONDS = 20

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: Relative tolerance of float goldens (simulated statistics repeat
#: exactly; the slack only absorbs JSON round-tripping).
GOLDEN_RTOL = 1e-9

#: Hybrid-vs-exact agreement the repo pins for the globe validation world.
GLOBE_TOLERANCE = 0.05

_WIDTHS = ((8, 8), (8, 16), (16, 8), (16, 16))
_FLEET_LOADS = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95)
_LLM_LOADS = (0.3, 0.5, 0.7, 0.85, 0.95)
_TIMER_BOUND_LOAD = 0.7
_SLO_S = 7e-3


@dataclass(frozen=True)
class OpSpec:
    """A plain, comparable descriptor of one op."""

    kind: str
    args: tuple
    seed: int = 0

    @property
    def key(self) -> str:
        """Golden key: the op's inputs without its seed."""
        return ":".join([self.kind, *map(str, self.args)])

    @property
    def name(self) -> str:
        return f"{self.key}@{self.seed}"


@dataclass
class BoundOp:
    spec: OpSpec
    prepare: Callable[[], Callable[[], Any]]
    check: Callable[[Any], list[str]]
    summary: Callable[[Any], dict]


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------
def _program_inputs() -> list[tuple]:
    from repro.nn.workloads import WORKLOAD_NAMES, build_workload

    inputs = []
    for name in WORKLOAD_NAMES:
        batch = build_workload(name).batch_size
        for b in sorted({max(1, batch // 2), batch, 2 * batch}):
            for wbits, abits in _WIDTHS:
                inputs.append((name, b, wbits, abits))
    return inputs


def plan(workload: str, seed: int, seconds: int = ROUND_SECONDS) -> list[OpSpec]:
    """The op list of one run: a deterministic function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    ops: list[OpSpec] = []
    for _ in range(max(1, round(seconds / ROUND_SECONDS))):
        ops += _ROUNDS[workload](rng)
    return ops


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _programs_round(rng: np.random.Generator) -> list[OpSpec]:
    # Every input once, in a seeded order (lowering-cache misses), then
    # the paper six at their Table 1 batch again (hits).
    from repro._paper import APPS, TABLE1

    cold = [OpSpec("program", args) for args in _program_inputs()]
    warm = [OpSpec("program", (app, TABLE1[app]["batch"], wbits, abits))
            for app in APPS for wbits, abits in _WIDTHS]
    return _shuffled(rng, cold) + _shuffled(rng, warm)


_STREAM_FLEETS = tuple(
    (replicas, policy) for replicas in (1, 4) for policy in ("fixed", "timeout")
)
_FEEDBACK_FLEETS = (
    (4, "jsq", "adaptive"), (4, "jsq", "fixed"), (1, "round_robin", "adaptive"),
)


def _fleet_stream_round(rng: np.random.Generator) -> list[OpSpec]:
    ops = [
        OpSpec("fleet", (replicas, "round_robin", policy, load, 60000), _seed(rng))
        for _ in range(6)
        for replicas, policy in _STREAM_FLEETS
        for load in _FLEET_LOADS
        if load != _TIMER_BOUND_LOAD
    ]
    # Near 0.7 of capacity the timeout fleet steps per timer and its host
    # time swings 4x with the arrival draw, so that point runs once on a
    # pinned trace, as does the global_serving validation world.
    ops += [
        OpSpec("fleet", (4, "round_robin", "timeout", _TIMER_BOUND_LOAD, 60000)),
        OpSpec("globe_validation", ("exact",)),
        OpSpec("globe_validation", ("hybrid",)),
    ]
    return _shuffled(rng, ops)


def _fleet_feedback_round(rng: np.random.Generator) -> list[OpSpec]:
    from repro.globe import ROUTING_POLICIES

    ops = [
        OpSpec("fleet", (replicas, router, policy, load, 30000), _seed(rng))
        for _ in range(6)
        for replicas, router, policy in _FEEDBACK_FLEETS
        for load in _FLEET_LOADS
    ]
    ops += [OpSpec("datacenter", (), _seed(rng)) for _ in range(8)]
    ops += [OpSpec("globe", (routing,), _seed(rng))
            for _ in range(4) for routing in sorted(ROUTING_POLICIES)]
    ops.append(OpSpec("table4", ()))
    return _shuffled(rng, ops)


_LLM_MODES = (
    ("continuous", "aggregated", False),
    ("fixed", "aggregated", False),
    ("continuous", "disaggregated", False),
    ("fixed", "disaggregated", False),
    ("continuous", "disaggregated", True),
    ("fixed", "disaggregated", True),
)


def _llm_round(rng: np.random.Generator) -> list[OpSpec]:
    ops = [
        OpSpec("llm", (scheduler, mode, autoscale, load, 2000), _seed(rng))
        for _ in range(6)
        for scheduler, mode, autoscale in _LLM_MODES
        for load in _LLM_LOADS
    ]
    return _shuffled(rng, ops)


_ROUNDS = {
    "programs": _programs_round,
    "fleet_stream": _fleet_stream_round,
    "fleet_feedback": _fleet_feedback_round,
    "llm_decode": _llm_round,
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Context:
    """What set-up builds once and every op of a run shares."""

    workload: str
    models: dict[str, Any] = dataclasses.field(default_factory=dict)
    fleets: dict[tuple, Any] = dataclasses.field(default_factory=dict)
    specs: dict[str, Any] = dataclasses.field(default_factory=dict)
    goldens: dict[str, dict] = dataclasses.field(default_factory=dict)
    results: dict[str, Any] = dataclasses.field(default_factory=dict)


def setup(workload: str) -> Context:
    """Import the simulator and build everything the first op needs."""
    import repro  # noqa: F401  (the import is part of set-up)

    ctx = Context(workload)
    if GOLDENS_PATH.exists():
        ctx.goldens = json.loads(GOLDENS_PATH.read_text())
    if workload == "programs":
        from repro.nn.workloads import WORKLOAD_NAMES, build_workload

        ctx.models = {name: build_workload(name) for name in WORKLOAD_NAMES}
    elif workload in ("fleet_stream", "fleet_feedback"):
        _setup_fleets(ctx)
    elif workload == "llm_decode":
        from repro.api.spec import LLMServeScenario
        from repro.serving.continuous import build_llm_config

        # Resolving one config builds gpt_s and its decode timing.
        build_llm_config(LLMServeScenario())
    return ctx


def _setup_fleets(ctx: Context) -> None:
    from repro import perfcache
    from repro.analysis.common import platforms, workload
    from repro.api.spec import ClusterSpec, GlobalScenario, RegionSpec
    from repro.platforms.base import BATCH_CANDIDATES
    from repro.serving.sweep import FleetSpec

    plats = platforms()
    model = workload("mlp0")
    kinds = ("tpu",) if ctx.workload == "fleet_stream" else tuple(plats)
    batches = sorted(set(BATCH_CANDIDATES) | {1, model.batch_size})
    for kind in kinds:
        perfcache.GLOBAL.warm(plats[kind], model, batches)
    tpu = plats["tpu"]
    bounded = tpu.latency_bounded_batch(model, _SLO_S)
    fleets = (
        [(r, "round_robin", p) for r, p in _STREAM_FLEETS]
        if ctx.workload == "fleet_stream" else list(_FEEDBACK_FLEETS)
    )
    for replicas, router, policy in fleets:
        ctx.fleets[(replicas, router, policy)] = FleetSpec(
            platform=tpu, model=model, replicas=replicas, policy=policy,
            slo_seconds=_SLO_S,
            batch_size=None if policy == "adaptive" else bounded,
            timeout_seconds=2e-3 if policy == "timeout" else None,
            router=router,
        )
    # The global_serving experiment's validation world (~809k requests):
    # small enough for the exact backend, loaded past the knee.
    ctx.specs["globe_validation"] = GlobalScenario(
        workload="mlp0", policy="timeout", batch=16, timeout_ms=2.0,
        regions=tuple(
            RegionSpec(name=name, rate_rps=9000.0, swing=0.6, phase=phase,
                       clusters=(ClusterSpec(name=f"{name}-tpu"),))
            for name, phase in (("americas", 0.0), ("europe", 1 / 3), ("asia", 2 / 3))
        ),
        period_s=30.0, duration_s=30.0, bins=12,
    )
    ctx.models["mlp0"] = model


# ----------------------------------------------------------------------
# binding ops to callables and checks
# ----------------------------------------------------------------------
def golden_key(spec: OpSpec) -> str:
    """Ops with a seed have goldens at the seeds :data:`DEFAULT_SEED` gives
    them; seedless ops (fixed inputs) have one golden for every seed."""
    return spec.name if spec.seed else spec.key


def bind(ctx: Context, spec: OpSpec) -> BoundOp:
    prepare, check, summary = _KINDS[spec.kind](ctx, spec)
    golden = ctx.goldens.get(golden_key(spec))

    def checked(result: Any) -> list[str]:
        problems = check(result)
        if golden is not None:
            problems += compare_golden(golden, summary(result))
        return problems

    return BoundOp(spec, prepare, checked, summary)


def compare_golden(golden: dict, actual: dict) -> list[str]:
    problems = []
    for field, want in golden.items():
        got = actual.get(field)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{field}: got {got!r}, golden {want!r}")
    return problems


def _finite_percentiles(p50: float, p99: float) -> list[str]:
    if not (math.isfinite(p50) and math.isfinite(p99) and 0 < p50 <= p99):
        return [f"percentiles not finite and ordered: p50={p50!r} p99={p99!r}"]
    return []


def _program(ctx: Context, spec: OpSpec):
    from repro import TPUDriver

    name, batch, wbits, abits = spec.args

    def prepare():
        base = ctx.models[name]
        model = base if base.batch_size == batch else dataclasses.replace(
            base, batch_size=batch)
        driver = TPUDriver()

        def call():
            compiled = driver.compile(model, weight_bits=wbits, activation_bits=abits)
            return compiled, driver.profile(compiled)

        return call

    def summary(result):
        compiled, run = result
        b = run.breakdown
        return {
            "instructions": len(compiled.program.instructions),
            "cycles": run.cycles,
            "active": b.active,
            "weight_stall": b.weight_stall,
            "weight_shift": b.weight_shift,
            "non_matrix": b.non_matrix,
        }

    def check(result):
        compiled, run = result
        b = run.breakdown
        parts = b.active + b.weight_stall + b.weight_shift + b.non_matrix
        if not math.isclose(parts, b.total, rel_tol=1e-9) or run.cycles <= 0:
            return [f"cycle breakdown does not add up: {parts!r} vs {b.total!r}"]
        ctx.results[spec.key] = run
        return []

    return prepare, check, summary


def _fleet(ctx: Context, spec: OpSpec):
    from repro.serving.traffic import poisson_arrivals

    replicas, router, policy, load, requests = spec.args
    fleet_spec = ctx.fleets[(replicas, router, policy)]

    def prepare():
        arrivals = poisson_arrivals(fleet_spec.capacity_rps() * load, requests,
                                    seed=spec.seed)
        fleet = fleet_spec.build()
        return lambda: fleet.run(arrivals)

    def summary(result):
        stats = result.stats(slo_seconds=_SLO_S)
        return {
            "served": int(result.responses.size),
            "batches": int(sum(result.batches_per_replica)),
            "p50_s": float(stats.p50_seconds),
            "p99_s": float(stats.p99_seconds),
            "mean_s": float(stats.mean_seconds),
        }

    def check(result):
        responses = result.responses
        problems = []
        if responses.size != requests or sum(result.served_per_replica) != requests:
            problems.append(f"request conservation: {requests} offered, "
                            f"{responses.size} responses, "
                            f"{sum(result.served_per_replica)} served")
        if not np.all(np.isfinite(responses)) or np.any(responses <= 0):
            problems.append("responses not finite and positive")
        stats = result.stats(slo_seconds=_SLO_S)
        return problems + _finite_percentiles(stats.p50_seconds, stats.p99_seconds)

    return prepare, check, summary


def _global_row(result) -> dict:
    return next(row for row in result.rows if row["section"] == "global")


def _globe_summary(result) -> dict:
    row = _global_row(result)
    return {
        "total_requests": float(row["total_requests"]),
        "p50_s": float(row["p50_seconds"]),
        "p99_s": float(row["p99_seconds"]),
        "throughput_rps": float(row["throughput_rps"]),
    }


def _globe_check(result) -> list[str]:
    row = _global_row(result)
    problems = _finite_percentiles(row["p50_seconds"], row["p99_seconds"])
    if not row["total_requests"] > 0 or not 0 <= row["spill_fraction"] <= 1:
        problems.append(f"implausible world: {row!r}")
    return problems


def _globe_validation(ctx: Context, spec: OpSpec):
    import repro

    scenario = ctx.specs["globe_validation"].replace(backend=spec.args[0])

    def check(result):
        ctx.results[spec.key] = result
        return _globe_check(result)

    return (lambda: lambda: repro.run(scenario)), check, _globe_summary


def _globe(ctx: Context, spec: OpSpec):
    import repro

    scenario = repro.GlobalScenario(routing=spec.args[0], seed=spec.seed)
    return (lambda: lambda: repro.run(scenario)), _globe_check, _globe_summary


def _datacenter(ctx: Context, spec: OpSpec):
    import repro

    scenario = repro.DatacenterScenario(seed=spec.seed)

    def summary(result):
        return {
            f"{row['section']}:{row['platform']}:{row.get('policy', '')}":
                float(row["p99_seconds"])
            for row in result.rows
        }

    def check(result):
        problems = []
        for row in result.rows:
            p99 = row["p99_seconds"]
            if not (math.isfinite(p99) and p99 > 0):
                problems.append(f"bad p99 in {row!r}")
            if not math.isfinite(row["usd_per_million_requests"]):
                problems.append(f"bad cost in {row!r}")
        if not any(row["section"] == "autoscaling" for row in result.rows):
            problems.append("no autoscaling rows")
        return problems

    return (lambda: lambda: repro.run(scenario)), check, summary


def _table4(ctx: Context, spec: OpSpec):
    from repro.analysis.common import platforms
    from repro.latency.sweep import table4_rows

    model = ctx.models["mlp0"]

    def summary(rows):
        return {f"{row.platform}:{row.batch}": float(row.p99_seconds) for row in rows}

    def check(rows):
        ctx.results[spec.key] = rows
        return [f"bad Table 4 row {row!r}" for row in rows
                if not (row.p99_seconds > 0 and row.ips > 0)]

    return (lambda: lambda: table4_rows(model, platforms())), check, summary


def _llm(ctx: Context, spec: OpSpec):
    from repro.api.spec import LLMServeScenario
    from repro.serving.continuous import (
        LLM_VALIDATION_RTOL,
        ContinuousBatchingSim,
        build_llm_config,
        fleet_capacity_tokens_per_s,
        sample_llm_requests,
    )
    from repro.serving.llm_reference import simulate_reference

    scheduler, mode, autoscale, load, requests = spec.args
    scenario = LLMServeScenario(scheduler=scheduler, mode=mode, autoscale=autoscale,
                                requests=requests, seed=spec.seed)
    trace: dict[str, Any] = {}

    def make_config():
        controllers = {}
        if autoscale:
            from repro.datacenter.llm_pools import pool_controllers

            controllers = pool_controllers(build_llm_config(scenario),
                                           scenario.prompt_tokens,
                                           scenario.decode_tokens)
        return build_llm_config(scenario, **controllers)

    def prepare():
        cfg = make_config()
        capacity = fleet_capacity_tokens_per_s(cfg, scenario.prompt_tokens,
                                               scenario.decode_tokens)
        arrays = sample_llm_requests(requests, load * capacity / scenario.decode_tokens,
                                     scenario.prompt_tokens, scenario.decode_tokens,
                                     spec.seed)
        trace["arrays"] = arrays
        sim = ContinuousBatchingSim(cfg)
        return lambda: sim.run(*arrays)

    def summary(result):
        return {
            "tokens": int(result.tokens),
            "iterations": int(result.iterations),
            "evictions": int(result.evictions),
            "horizon_s": float(result.horizon),
        }

    def check(result):
        arrivals, prompts, decodes = trace.pop("arrays")
        problems = []
        if result.tokens != int(decodes.sum()) or not np.array_equal(result.emitted,
                                                                     decodes):
            problems.append(f"token conservation: {result.tokens} emitted, "
                            f"{int(decodes.sum())} requested")
        if not (np.all(np.isfinite(result.finish)) and np.all(result.finish >= arrivals)):
            problems.append("finish times not finite or before arrival")
        replayed = ctx.results.setdefault("llm_replayed", set())
        if mode == "aggregated" and spec.key not in replayed:
            # The per-request replay covers aggregated mode only; one
            # trace per (scheduler, load) keeps the untimed part short.
            replayed.add(spec.key)
            ref = simulate_reference(make_config(), arrivals, prompts, decodes)
            err = np.abs(result.finish - ref["finish"]) / np.maximum(ref["finish"], 1e-12)
            if float(err.max()) > LLM_VALIDATION_RTOL:
                problems.append(f"engine vs reference finish error {err.max():.3g}")
        return problems

    return prepare, check, summary


_KINDS = {
    "program": _program,
    "fleet": _fleet,
    "globe_validation": _globe_validation,
    "globe": _globe,
    "datacenter": _datacenter,
    "table4": _table4,
    "llm": _llm,
}


# ----------------------------------------------------------------------
# reference error (simulated vs a reference the repo holds), untimed
# ----------------------------------------------------------------------
def reference_error_pct(ctx: Context) -> tuple[float, list[str]]:
    """The workload's ``ref_err_pct`` plus any cross-op check failures."""
    return _REFERENCE[ctx.workload](ctx)


def _ref_programs(ctx: Context) -> tuple[float, list[str]]:
    # Simulated vs paper Table 3 counters: mean absolute gap, in points
    # of cycle share, over the four causes every cycle is assigned to.
    from repro._paper import APPS, TABLE1, TABLE3

    gaps = []
    for app in APPS:
        run = ctx.results[OpSpec("program", (app, TABLE1[app]["batch"], 8, 8)).key]
        b = run.breakdown
        sim = {
            "active": b.active_fraction,
            "weight_stall": b.weight_stall_fraction,
            "weight_shift": b.weight_shift_fraction,
            "non_matrix": b.non_matrix_fraction,
        }
        gaps += [abs(value - TABLE3[app][key]) * 100 for key, value in sim.items()]
    return float(np.mean(gaps)), []


def _ref_fleet_stream(ctx: Context) -> tuple[float, list[str]]:
    exact = _global_row(ctx.results[OpSpec("globe_validation", ("exact",)).key])
    hybrid = _global_row(ctx.results[OpSpec("globe_validation", ("hybrid",)).key])
    problems = []
    for field in ("p99_seconds", "throughput_rps"):
        err = abs(hybrid[field] - exact[field]) / exact[field]
        if err > GLOBE_TOLERANCE:
            problems.append(f"globe hybrid {field} {err:.1%} from exact (> 5%)")
    err = abs(hybrid["p99_seconds"] - exact["p99_seconds"]) / exact["p99_seconds"]
    return err * 100, problems


def _ref_fleet_feedback(ctx: Context) -> tuple[float, list[str]]:
    # The paper's Table 4 MLP0 row on the TPU: p99 and IPS at batch 200.
    from repro import _paper

    rows = ctx.results[OpSpec("table4", ()).key]
    row = next(r for r in rows if r.platform == "TPU" and r.batch == 200)
    paper = _paper.TABLE4[("tpu", 200)]
    errs = (abs(row.p99_seconds * 1e3 - paper["p99_ms"]) / paper["p99_ms"],
            abs(row.ips - paper["ips"]) / paper["ips"])
    return float(np.mean(errs)) * 100, []


def _ref_llm(ctx: Context) -> tuple[float, list[str]]:
    # The engine's saturated decode throughput vs the closed-form
    # capacity it is sized by (the per-request replay agrees with the
    # engine exactly, so it cannot serve as a non-zero error figure).
    from repro.api.spec import LLMServeScenario
    from repro.serving.continuous import (
        build_llm_config,
        fleet_capacity_tokens_per_s,
        run_llm_point,
    )

    scenario = LLMServeScenario()
    cfg = build_llm_config(scenario)
    capacity = fleet_capacity_tokens_per_s(cfg, scenario.prompt_tokens,
                                           scenario.decode_tokens)
    result = run_llm_point(cfg, rate_rps=2.0 * capacity / scenario.decode_tokens,
                           requests=scenario.requests,
                           prompt_mean=scenario.prompt_tokens,
                           decode_mean=scenario.decode_tokens, seed=scenario.seed)
    achieved = result.tokens / result.horizon
    return abs(achieved - capacity) / capacity * 100, []


_REFERENCE = {
    "programs": _ref_programs,
    "fleet_stream": _ref_fleet_stream,
    "fleet_feedback": _ref_fleet_feedback,
    "llm_decode": _ref_llm,
}
