"""Tracked performance benchmarks: the ``BENCH_<n>.json`` trajectory.

``python -m repro bench`` (or ``python benchmarks/harness.py``) times the
repository's hot analysis paths -- the full report fan-out, a
datacenter provisioning search, a serving load sweep, the raw fleet
inner loop, the planet-scale hybrid backend, and the iteration-level
LLM decode engine -- and writes a
trajectory point as JSON.  The convention: PR *n* commits ``BENCH_n.json``
at the repo root, so the sequence of files records how the hot paths'
wall time moves as the codebase grows.  CI re-runs the harness on every
push (``--quick``) and fails only if it errors; timing thresholds would
flake on shared runners, so speed regressions are caught by reading the
trajectory, not by CI.

Each record carries the :mod:`repro.perfcache` hit rate observed during
that bench, which is what proves the shared latency-curve cache is
actually engaged (the repeated sweep and re-search benches should be
nearly all hits; at the seed, before the cache existed, every one of
those lookups was a fresh platform evaluation).

Benches run in one process, in order, sharing caches -- deliberately.
The first bench (the report) pays the cold compile/profile cost exactly
once, like any real session; the re-search and repeat benches then
measure the steady state the cache exists to provide.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro import obs

_log = obs.get_logger("repro.benchmark")

SCHEMA = "repro-bench/1"

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def latest_bench_name(directory: str | None = None) -> str:
    """The newest committed trajectory file name (highest ``N``).

    Scans ``directory`` (default: the repo root, three levels above this
    module) for ``BENCH_<N>.json`` and returns the highest-numbered name,
    or ``BENCH_0.json`` when none exist yet.  This is what keeps CI free
    of hardcoded trajectory names: each PR that commits ``BENCH_<n+1>.json``
    automatically becomes the name the harness writes and uploads.
    """
    if directory is None:
        directory = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    best = 0
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        match = _BENCH_NAME.match(name)
        if match:
            best = max(best, int(match.group(1)))
    return f"BENCH_{best}.json"

#: Requests per simulated operating point (full vs --quick).
FULL_REQUESTS = 20000
QUICK_REQUESTS = 2000

#: ``--quick`` report subset: one cheap table per subsystem.
QUICK_REPORT_ONLY = ["table1", "table4", "table6"]


@dataclass(frozen=True)
class BenchRecord:
    """One timed scenario: a row in the trajectory file."""

    name: str
    wall_seconds: float
    cache_hit_rate: float
    #: :func:`repro.obs.metrics_snapshot` taken right after the bench --
    #: what the timed run actually did (batches, compiles, device runs).
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "metrics": self.metrics,
        }


def git_rev() -> str:
    """The current commit (short), or ``unknown`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _timed(name: str, fn) -> BenchRecord:
    """Run ``fn`` once, recording wall time, the perfcache hit rate, and
    a metrics snapshot of what the run did (registry enabled per bench)."""
    from repro import perfcache

    cache = perfcache.GLOBAL
    cache.reset_counters()
    obs.REGISTRY.reset()
    previous = obs.REGISTRY.enabled
    obs.REGISTRY.enabled = True
    start = time.perf_counter()
    try:
        fn()
    finally:
        wall = time.perf_counter() - start
        obs.REGISTRY.enabled = previous
    return BenchRecord(name, wall, cache.stats().hit_rate, obs.metrics_snapshot())


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------
def _bench_report(quick: bool, jobs: int = 4) -> list[BenchRecord]:
    """The full paper-vs-measured report through the ``--jobs`` fan-out."""
    from repro.analysis.report import write_report

    only = QUICK_REPORT_ONLY if quick else None

    def run() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            write_report(
                os.path.join(tmp, "EXPERIMENTS.md"),
                exp_ids=only, jobs=jobs, verbose=False,
            )

    suffix = "_quick" if quick else ""
    return [_timed(f"report_jobs{jobs}{suffix}", run)]


def _bench_compile(quick: bool) -> list[BenchRecord]:
    """Cold vs cache-hot compilation of the six paper programs.

    ``compile_cold`` drops the process-wide emission memo and lowers all
    six programs from scratch on a fresh driver -- the full emission
    pass's cost.  ``compile_warm`` compiles the same six on another
    fresh driver: every lowering should replay a cached emission and pay
    only for allocation, which is the cost a sweep's curve anchors or a
    ``report --jobs`` worker actually sees.
    """
    from repro import perfcache
    from repro.compiler.driver import TPUDriver
    from repro.nn.workloads import paper_workloads

    models = list(paper_workloads().values())

    def compile_all() -> None:
        driver = TPUDriver()
        for model in models:
            driver.compile(model)

    perfcache.GLOBAL_LOWERING.invalidate()
    cold = _timed("compile_cold", compile_all)
    warm = _timed("compile_warm", compile_all)
    return [cold, warm]


def _bench_serving_inner_loop(quick: bool) -> list[BenchRecord]:
    """The raw fleet inner loop, isolated from platform curves and sweep
    scaffolding: saturating Poisson traffic into four constant-curve
    replicas through the jsq router.  Times exactly the bulk-admission
    and array-completion path.
    """
    from repro.serving.batcher import TimeoutBatcher
    from repro.serving.engine import ConstantCurve
    from repro.serving.fleet import Fleet, Replica
    from repro.serving.traffic import poisson_arrivals

    n_requests = 20_000 if quick else 200_000
    arrivals = poisson_arrivals(rate=204800.0, n_requests=n_requests, seed=0)

    def run() -> None:
        curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=1.5e-3)
        fleet = Fleet(
            [Replica(curve, TimeoutBatcher(64, 5e-4), name=f"r{i}") for i in range(4)],
            router="jsq",
        )
        fleet.run(arrivals)

    return [_timed("serving_inner_loop", run)]


def _provisioning_inputs(quick: bool):
    from repro.analysis.common import platforms, workload
    from repro.serving.sweep import FleetSpec
    from repro.serving.traffic import make_traffic

    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    spec = FleetSpec(
        platform=platforms()["tpu"],
        model=workload("mlp0"),
        replicas=1,
        policy="adaptive",
        slo_seconds=7e-3,
        router="jsq",
    )
    arrivals = make_traffic("diurnal", swing=0.6)(20000.0, n_requests, seed=0)
    return spec, arrivals


def _bench_provisioning(quick: bool) -> list[BenchRecord]:
    """The capacity-planning search, then the re-search the cache enables.

    ``provisioning_search`` is the first search this process runs (its
    curve probes may already be warm from the report bench).  The
    ``_research`` record re-runs the identical search -- the capacity
    planner's everyday loop of re-planning under tweaked economics --
    where every latency probe should hit the shared cache.
    """
    from repro.datacenter.provisioning import plan_capacity

    spec, arrivals = _provisioning_inputs(quick)
    max_replicas = 8 if quick else 16

    first = _timed(
        "provisioning_search",
        lambda: plan_capacity(spec, arrivals, max_replicas=max_replicas),
    )
    # A fresh spec drops the per-curve memo, so the re-search's latency
    # probes all go through (and should hit) the process-wide perfcache.
    respec, _ = _provisioning_inputs(quick)
    again = _timed(
        "provisioning_research",
        lambda: plan_capacity(respec, arrivals, max_replicas=max_replicas),
    )
    return [first, again]


def _bench_serving_sweep(quick: bool) -> list[BenchRecord]:
    """The p99-vs-throughput sweep, then an identical repeat (cache-hot)."""
    from repro.analysis.common import platforms, workload
    from repro.serving.sweep import FleetSpec, serving_sweep

    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    spec = FleetSpec(
        platform=platforms()["tpu"],
        model=workload("mlp0"),
        replicas=4,
        policy="adaptive",
        slo_seconds=7e-3,
    )

    def sweep() -> None:
        serving_sweep(spec, n_requests=n_requests, seed=0)

    first = _timed("serving_sweep", sweep)
    # A fresh spec drops the per-curve memo but keeps the process-wide
    # perfcache: this is the cross-consumer sharing the cache is for.
    fresh = FleetSpec(
        platform=platforms()["tpu"],
        model=workload("mlp0"),
        replicas=4,
        policy="adaptive",
        slo_seconds=7e-3,
    )

    def resweep() -> None:
        serving_sweep(fresh, n_requests=n_requests, seed=0)

    again = _timed("serving_sweep_repeat", resweep)
    return [first, again]


def _bench_globe(quick: bool) -> list[BenchRecord]:
    """The planet-scale hybrid backend pricing the default world.

    The default ``GlobalScenario`` is three follow-the-sun regions at
    120k req/s each over 120 s -- ~43M expected requests.  The record
    proves the scale claim of :mod:`repro.globe`: hybrid cost scales
    with ``bins x clusters`` (plus a handful of short memoized event
    traces), not with requests, so the wall time here stays seconds
    even though the world is three orders of magnitude past what the
    exact event backend could touch.  ``--quick`` shrinks only the
    event-sample traces; the world stays full-size.
    """
    from repro.api.spec import GlobalScenario
    from repro.globe import simulate_global

    scenario = GlobalScenario(event_requests=1000 if quick else 4000)
    total = {"requests": 0.0}

    def run() -> None:
        result = simulate_global(scenario)
        total["requests"] = result.total_requests

    record = _timed("global_sweep", run)
    metrics = dict(record.metrics)
    metrics["globe.world_requests"] = total["requests"]
    return [BenchRecord(record.name, record.wall_seconds,
                        record.cache_hit_rate, metrics)]


def _bench_llm(quick: bool) -> list[BenchRecord]:
    """The iteration-level LLM decode engine across the load curve.

    Two gpt_s decode chips under the continuous scheduler at a low and a
    near-saturated load: the record tracks the wall cost of the
    per-iteration event loop (one event per model pass, not per token)
    and carries the simulated token throughput so trajectory readers can
    see engine-time-per-simulated-token, not just wall time.
    """
    from repro.api.spec import LLMServeScenario
    from repro.serving.continuous import (
        build_llm_config,
        fleet_capacity_tokens_per_s,
        run_llm_point,
    )

    scenario = LLMServeScenario(requests=400 if quick else 2000)
    cfg = build_llm_config(scenario)
    capacity = fleet_capacity_tokens_per_s(
        cfg, scenario.prompt_tokens, scenario.decode_tokens
    )
    total = {"tokens": 0, "iterations": 0}

    def run() -> None:
        for load in (0.5, 0.95):
            result = run_llm_point(
                cfg,
                rate_rps=load * capacity / scenario.decode_tokens,
                requests=scenario.requests,
                prompt_mean=scenario.prompt_tokens,
                decode_mean=scenario.decode_tokens,
                seed=scenario.seed,
            )
            total["tokens"] += result.tokens
            total["iterations"] += result.iterations

    record = _timed("llm_decode_curve", run)
    metrics = dict(record.metrics)
    metrics["llm.simulated_tokens"] = float(total["tokens"])
    metrics["llm.simulated_iterations"] = float(total["iterations"])
    return [BenchRecord(record.name, record.wall_seconds,
                        record.cache_hit_rate, metrics)]


def run_benches(quick: bool = False, jobs: int = 4) -> dict:
    """Run every scenario and assemble the trajectory point."""
    records: list[BenchRecord] = []
    records += _bench_report(quick, jobs=jobs)
    records += _bench_compile(quick)
    records += _bench_provisioning(quick)
    records += _bench_serving_sweep(quick)
    records += _bench_serving_inner_loop(quick)
    records += _bench_globe(quick)
    records += _bench_llm(quick)
    return {
        "schema": SCHEMA,
        "git_rev": git_rev(),
        "quick": quick,
        "benches": [record.to_dict() for record in records],
    }


def validate(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid trajectory point."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"bad schema: {payload.get('schema')!r} != {SCHEMA!r}")
    if not isinstance(payload.get("git_rev"), str) or not payload["git_rev"]:
        raise ValueError("git_rev must be a non-empty string")
    benches = payload.get("benches")
    if not isinstance(benches, list) or not benches:
        raise ValueError("benches must be a non-empty list")
    for bench in benches:
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"bench name must be a non-empty string: {bench}")
        wall = bench.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall < 0:
            raise ValueError(f"{name}: wall_seconds must be >= 0, got {wall!r}")
        rate = bench.get("cache_hit_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"{name}: cache_hit_rate must be in [0, 1], got {rate!r}"
            )
        metrics = bench.get("metrics", {})
        if not isinstance(metrics, dict):  # optional, but a dict when present
            raise ValueError(f"{name}: metrics must be a dict, got {metrics!r}")


def write_bench(path: str, quick: bool = False, jobs: int = 4) -> dict:
    """Run the harness and write the trajectory point to ``path``."""
    payload = run_benches(quick=quick, jobs=jobs)
    validate(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the hot analysis paths and write a "
                    "BENCH_*.json trajectory point.",
    )
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: the newest "
                             "committed BENCH_*.json name)")
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the report bench (default 4)")
    parser.add_argument("--latest-name", action="store_true",
                        help="print the newest committed BENCH_*.json "
                             "name and exit (for CI scripting)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.latest_name:
        sys.stdout.write(latest_bench_name() + "\n")
        return 0
    out = args.out if args.out is not None else latest_bench_name()
    try:
        payload = write_bench(out, quick=args.quick, jobs=args.jobs)
    except Exception as exc:  # CI contract: fail loudly on harness errors
        _log.error("bench: %s", exc)
        return 1
    for bench in payload["benches"]:
        _log.info("%-24s %8.2fs  hit rate %.0f%%", bench["name"],
                  bench["wall_seconds"], 100 * bench["cache_hit_rate"])
    _log.info("wrote %s (rev %s)", out, payload["git_rev"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
