"""Per-layer tracing from outside the program: wrappers, spans, self-time.

A traced run replaces the public entry point of each simulator layer with
a timing wrapper, runs the workload's set-up and ops, and puts every
original back.  The wrappers keep a span stack on one thread; a layer's
*self-time* is the duration of its spans minus the time of the wrapped
spans nested inside them, so the self-times of one run add up to its
traced wall time minus what the benchmark itself spent between layers.

Functions are patched in every loaded module that holds them, so a name
bound early by ``from x import y`` is traced as well; methods are patched
on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class _Frame:
    layer: str
    entry: str
    start: float
    child: float = 0.0


class SelfTimer:
    """Span stack that splits wall time into per-layer self-time.

    ``enter``/``exit`` take explicit timestamps so the arithmetic can be
    checked on synthetic spans.
    """

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: Outermost-span time per layer (a span nested in a span of the
        #: same layer is not counted twice).
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.fired: dict[str, int] = defaultdict(int)

    def enter(self, layer: str, now: float, entry: str = "") -> None:
        self.stack.append(_Frame(layer, entry or layer, now))

    def exit(self, now: float) -> None:
        frame = self.stack.pop()
        duration = now - frame.start
        self.self_s[frame.layer] += duration - frame.child
        if not any(f.layer == frame.layer for f in self.stack):
            self.incl_s[frame.layer] += duration
        self.calls[frame.layer] += 1
        self.fired[frame.entry] += 1
        if self.stack:
            self.stack[-1].child += duration

    def inside(self, entry: str) -> bool:
        return any(f.entry == entry for f in self.stack)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:Class.method`` or ``module:func``."""

    layer: str
    path: str
    #: Workloads on which this wrapper must fire at least once.
    expect: tuple[str, ...]
    #: ``(tracer, args, result)`` hook collecting the layer's counts.
    count: Callable[["Tracer", tuple, Any], None] | None = None

    @property
    def entry(self) -> str:
        return self.path.split(":")[1]


def _count_compile(t: "Tracer", args: tuple, result: Any) -> None:
    t.counts["compiler.instructions"] += len(result.program.instructions)


def _count_device(t: "Tracer", args: tuple, result: Any) -> None:
    program = args[1]
    b = result.breakdown
    t.counts["core.instructions"] += len(program.instructions)
    t.counts["core.sim_cycles"] += result.cycles
    t.counts["core.weight_stall_cycles"] += b.weight_stall
    t.counts["core.weight_shift_cycles"] += b.weight_shift
    t.counts["core.mxu_active_cycles"] += b.active
    t.counts["core.non_matrix_cycles"] += b.non_matrix


def _count_fleet(t: "Tracer", args: tuple, result: Any) -> None:
    sim = args[0]
    t.counts["serving.fleet.requests"] += sim.arrivals.size
    t.counts["serving.fleet.batches"] += sum(result.batches_per_replica)
    t.responses.append(result.responses)
    if t.timer.inside("plan_capacity"):
        t.counts["datacenter.candidates"] += 1


def _count_hybrid(t: "Tracer", args: tuple, result: Any) -> None:
    for kind, cells in result.backend_cells.items():
        t.counts[f"globe.cells_{kind}"] += cells


def _count_exact(t: "Tracer", args: tuple, result: Any) -> None:
    t.counts["globe.exact.requests"] += result.total_requests


def _count_autoscaler(t: "Tracer", args: tuple, result: Any) -> None:
    # One control tick per interval until the last arrival is admitted,
    # plus the tick that sees the trace exhausted and stops.
    fleet, arrivals = args[0], args[1]
    interval = fleet.config.control_interval_seconds
    t.counts["datacenter.autoscaler_ticks"] += int(float(arrivals[-1]) // interval) + 1


def _count_llm(t: "Tracer", args: tuple, result: Any) -> None:
    t.counts["llm.iterations"] += result.iterations
    t.counts["llm.tokens"] += result.tokens
    t.counts["llm.evictions"] += result.evictions


_FLEET = ("fleet_stream", "fleet_feedback")

TARGETS: tuple[Target, ...] = (
    Target("compiler", "repro.compiler.driver:TPUDriver.compile", ("programs",),
           _count_compile),
    Target("core", "repro.core.device:TPUDevice.run", ("programs",), _count_device),
    Target("platforms", "repro.platforms.tpu:TPUPlatform.occupancy_seconds", _FLEET),
    Target("platforms", "repro.platforms.tpu:TPUPlatform.service_seconds", _FLEET),
    Target("platforms", "repro.platforms.base:Platform.occupancy_seconds",
           ("fleet_feedback",)),
    Target("platforms", "repro.platforms.base:AnalyticalPlatform.service_seconds",
           ("fleet_feedback",)),
    Target("perfcache", "repro.perfcache:PerfCache.occupancy_latency", _FLEET),
    Target("serving.fleet", "repro.serving.fleet:FleetSim.run", _FLEET, _count_fleet),
    Target("globe.routing", "repro.globe.routing:plan_routes", _FLEET),
    Target("globe.hybrid", "repro.globe.backend:evaluate_hybrid", _FLEET, _count_hybrid),
    Target("globe.exact", "repro.globe.backend:evaluate_exact", ("fleet_stream",),
           _count_exact),
    Target("datacenter", "repro.datacenter.provisioning:plan_capacity",
           ("fleet_feedback",)),
    Target("datacenter", "repro.datacenter.autoscaler:AutoscaledFleet.run",
           ("fleet_feedback",), _count_autoscaler),
    Target("llm", "repro.serving.continuous:ContinuousBatchingSim.run",
           ("llm_decode",), _count_llm),
    Target("api", "repro.api.runner:run", _FLEET),
)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("compiler.calls", "count"),
    ("compiler.self_s", "s"),
    ("compiler.instructions", "count"),
    ("compiler.us_per_instruction", "us"),
    ("compiler.lowering_hit_ratio", "ratio"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("core.us_per_instruction", "us"),
    ("core.sim_cycles", "cycles"),
    ("core.weight_stall_cycles", "cycles"),
    ("core.weight_shift_cycles", "cycles"),
    ("core.mxu_active_cycles", "cycles"),
    ("core.non_matrix_cycles", "cycles"),
    ("platforms.calls", "count"),
    ("platforms.self_s", "s"),
    ("perfcache.calls", "count"),
    ("perfcache.self_s", "s"),
    ("perfcache.lookups", "count"),
    ("perfcache.hit_ratio", "ratio"),
    ("serving.fleet.calls", "count"),
    ("serving.fleet.self_s", "s"),
    ("serving.fleet.requests", "count"),
    ("serving.fleet.batches", "count"),
    ("serving.fleet.us_per_request", "us"),
    ("serving.fleet.sim_p99_ms", "ms"),
    ("globe.routing.self_s", "s"),
    ("globe.hybrid.self_s", "s"),
    ("globe.exact.self_s", "s"),
    ("globe.exact.us_per_request", "us"),
    ("globe.cells_analytic", "count"),
    ("globe.cells_event", "count"),
    ("globe.cells_fluid", "count"),
    ("datacenter.calls", "count"),
    ("datacenter.self_s", "s"),
    ("datacenter.candidates", "count"),
    ("datacenter.autoscaler_ticks", "count"),
    ("llm.calls", "count"),
    ("llm.self_s", "s"),
    ("llm.iterations", "count"),
    ("llm.tokens", "count"),
    ("llm.us_per_iteration", "us"),
    ("llm.evictions", "count"),
    ("api.self_s", "s"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
)


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``module:Class.attr`` -> (owner, attribute name, original)."""
    module_name, qual = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = qual.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr] if owners else getattr(owner, attr)


def _rebind(old: Callable, new: Callable) -> None:
    """Point every module attribute that holds ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for name, value in list(namespace.items()):
            if value is old:
                setattr(module, name, new)


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on exit."""

    def __init__(self) -> None:
        self.timer = SelfTimer()
        self.counts: dict[str, float] = defaultdict(float)
        self.responses: list[np.ndarray] = []
        self._installed: list[tuple[Any, str, Callable, Callable]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        timer, clock, count = self.timer, time.perf_counter, target.count
        layer, entry = target.layer, target.entry

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer.enter(layer, clock(), entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                timer.exit(clock())
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for target in TARGETS:
            owner, attr, original = _resolve(target.path)
            wrapper = self._wrap(target, original)
            self._installed.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)

    def remove(self) -> None:
        """Put every original back, including into modules that imported
        a wrapper by name while the tracer was installed."""
        while self._installed:
            owner, attr, original, wrapper = self._installed.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                _rebind(wrapper, original)

    @property
    def wrappers(self) -> list[Callable]:
        return [wrapper for *_, wrapper in self._installed]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def unfired(self, workload: str) -> list[str]:
        """Wrappers meant to fire on ``workload`` that never did."""
        return [
            t.path for t in TARGETS
            if workload in t.expect and not self.timer.fired[t.entry]
        ]


def layer_metrics(
    tracer: Tracer,
    traced_s: float,
    ops_s: float,
    untraced_ops_s: float,
    lowering: tuple[int, int],
    perfcache: tuple[int, int],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced run.

    ``traced_s`` is the wall time of the traced set-up and ops;
    ``ops_s``/``untraced_ops_s`` are the summed op times of the traced
    run and of a fresh untraced run; ``lowering``/``perfcache`` are the
    (hits, misses) those caches counted over the traced run.
    """
    timer, counts = tracer.timer, tracer.counts
    self_s, incl_s, calls = timer.self_s, timer.incl_s, timer.calls

    def per(numerator_s: float, denominator: float) -> float:
        return numerator_s * 1e6 / denominator if denominator else 0.0

    def ratio(hits_misses: tuple[int, int]) -> float:
        hits, misses = hits_misses
        return hits / (hits + misses) if hits + misses else 0.0

    responses = (np.concatenate(tracer.responses) if tracer.responses
                 else np.zeros(0))
    out = {
        "compiler.us_per_instruction": per(incl_s["compiler"],
                                           counts["compiler.instructions"]),
        "compiler.lowering_hit_ratio": ratio(lowering),
        "core.us_per_instruction": per(incl_s["core"], counts["core.instructions"]),
        "perfcache.lookups": float(sum(perfcache)),
        "perfcache.hit_ratio": ratio(perfcache),
        "serving.fleet.us_per_request": per(incl_s["serving.fleet"],
                                            counts["serving.fleet.requests"]),
        "serving.fleet.sim_p99_ms": (float(np.percentile(responses, 99)) * 1e3
                                     if responses.size else 0.0),
        "globe.exact.us_per_request": per(incl_s["globe.exact"],
                                          counts["globe.exact.requests"]),
        "llm.us_per_iteration": per(incl_s["llm"], counts["llm.iterations"]),
        "bench.self_s": traced_s - sum(self_s.values()),
        "bench.trace_overhead_frac": ops_s / untraced_ops_s - 1.0,
    }
    for name, _unit in LAYER_METRICS:
        if name in out:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = float(calls[layer])
        elif stat == "self_s":
            out[name] = self_s[layer]
        else:
            out[name] = float(counts[name])
    return out
