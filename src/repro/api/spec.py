"""Declarative scenario specs: the serializable half of every entry point.

The paper's evaluation is one big parameter study -- six workloads x
three platforms x batching/SLO/power knobs -- so this module separates
*specification* from *execution* the way TensorFlow separates graph
construction from running it: a scenario is a frozen dataclass that
round-trips through JSON (``to_dict``/``from_dict``/``to_json``), is
validated on construction with actionable errors, and is executed by
:func:`repro.api.runner.run`.  The CLI, the experiment registry, and
sweep drivers all speak this one vocabulary, so a new study is a config
file, not a code change.

Specs are deliberately lightweight: they name workloads and platforms
by string and validate against the registries lazily, so importing (or
fuzzing) a spec never builds a model or compiles a program.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

#: Scenario ``kind`` -> concrete spec class, populated by subclassing.
_SCENARIO_KINDS: dict[str, type["ScenarioSpec"]] = {}

PLATFORM_KINDS = ("cpu", "gpu", "tpu")
BATCH_POLICIES = ("adaptive", "fixed", "timeout")
ROUTERS = ("round_robin", "jsq")
TRAFFIC_KINDS = ("poisson", "diurnal", "uniform")
OPERAND_BITS = (8, 16)


class SpecError(ValueError):
    """A scenario failed validation; the message says how to fix it."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _workload_names() -> tuple[str, ...]:
    # Lazy: spec construction must stay import-light.
    from repro.nn.workloads import WORKLOAD_NAMES

    return WORKLOAD_NAMES


def _check_workload(name: object) -> None:
    _require(isinstance(name, str),
             f"workload must be a string, got {name!r}")
    if name in _workload_names():
        return
    from repro.nn.workloads import unknown_workload_message

    raise SpecError(unknown_workload_message(name))


def _check_choice(field: str, value: object, choices: tuple[Any, ...]) -> None:
    _require(value in choices,
             f"{field} must be one of "
             f"{', '.join(str(c) for c in choices)}; got {value!r}")


def _finite(value: object) -> bool:
    """A finite int or float.  bool is an int subclass, but a JSON true
    is not a number; an int too large for a float is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: The largest integer field value: counts size and index numpy arrays,
#: which hold int64.
_INT64_MAX = 2**63 - 1

#: The serving fleet builds and steps every replica, and the LLM engine
#: every chip of its pools: refuse fleets and pools larger than this.
_MAX_REPLICAS = 4096


def _check_positive(field: str, value: object, integer: bool = False) -> None:
    kind = "a positive integer" if integer else "a positive number"
    if integer:
        ok = not isinstance(value, bool) and isinstance(value, int)
    else:
        ok = _finite(value)
    _require(ok and value > 0, f"{field} must be {kind}, got {value!r}")
    if integer:
        _require(value <= _INT64_MAX,
                 f"{field} must fit in a signed 64-bit integer "
                 f"(at most 2**63 - 1), got {value!r}")


def _check_replicas(field: str, value: object, engine: str = "fleet",
                    unit: str = "replica") -> None:
    """A positive count of replicas (or chips), at most :data:`_MAX_REPLICAS`."""
    _check_positive(field, value, integer=True)
    _require(value <= _MAX_REPLICAS,
             f"{field} must be at most {_MAX_REPLICAS:,} (the {engine} simulates "
             f"every {unit}), got {value!r}")


def _check_non_negative(field: str, value: object) -> None:
    _require(_finite(value) and value >= 0,
             f"{field} must be a finite non-negative number, got {value!r}")


def _check_seed(value: object) -> None:
    _require(not isinstance(value, bool) and isinstance(value, int) and value >= 0,
             f"seed must be a non-negative integer, got {value!r}")


def _check_optional_positive(field: str, value: object, integer: bool = False) -> None:
    if value is not None:
        _check_positive(field, value, integer=integer)


def _field(default: Any, help: str, choices: tuple[Any, ...] | None = None) -> Any:
    """A scenario field carrying its help text (and choices) as metadata.

    ``python -m repro <kind>`` builds each scalar field's flag from this;
    ``choices`` is the same tuple ``validate`` checks the value against.
    """
    return dataclasses.field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class ScenarioSpec:
    """Base class: a declarative, JSON-serializable description of a run.

    Subclasses set ``kind`` (the dispatch tag in serialized form) and
    implement ``validate``; construction always validates, so a spec
    that exists is a spec that can run.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            _SCENARIO_KINDS[cls.kind] = cls

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        raise NotImplementedError

    def replace(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with fields overridden (re-validated on construction)."""
        return dataclasses.replace(self, **overrides)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            data[f.name] = _plain(value)
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Reconstruct any scenario from its ``to_dict`` form.

        Dispatches on ``data["kind"]`` when called on the base class;
        called on a subclass, the kind (if present) must match.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"a scenario must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        kind = payload.pop("kind", None)
        target: type[ScenarioSpec]
        if cls is ScenarioSpec:
            _require(isinstance(kind, str),
                     f"scenario dict needs a string 'kind' (got {kind!r}); "
                     "valid kinds: " + ", ".join(sorted(_SCENARIO_KINDS)))
            target = _SCENARIO_KINDS.get(kind)  # type: ignore[assignment]
            if target is None:
                raise SpecError(
                    f"unknown scenario kind {kind!r}; valid kinds: "
                    + ", ".join(sorted(_SCENARIO_KINDS))
                )
        else:
            target = cls
            _require(kind is None or kind == cls.kind,
                     f"kind {kind!r} does not match {cls.kind!r} "
                     f"(use ScenarioSpec.from_dict to dispatch on kind)")
        field_names = {f.name for f in dataclasses.fields(target)}
        unknown = sorted(set(payload) - field_names)
        _require(not unknown,
                 f"unknown field(s) {', '.join(unknown)} for {target.kind!r} "
                 f"scenario; valid fields: {', '.join(sorted(field_names))}")
        try:
            return target(**payload)
        except TypeError as exc:
            raise SpecError(f"invalid {target.kind!r} scenario: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _plain(value: Any) -> Any:
    """Fields -> JSON-native values (tuples become lists, specs dicts)."""
    if isinstance(value, ScenarioSpec):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _set(spec: ScenarioSpec, field: str, value: Any) -> None:
    object.__setattr__(spec, field, value)


def _float_tuple(field: str, value: Any) -> tuple[float, ...]:
    _require(isinstance(value, (tuple, list)) and len(value) > 0,
             f"{field} must be a non-empty sequence of numbers, got {value!r}")
    out = []
    for v in value:
        _require(not isinstance(v, bool) and isinstance(v, (int, float)),
                 f"{field} entries must be numbers, got {v!r}")
        _require(isinstance(v, float) or _finite(v),
                 f"{field} entries must fit in a float, got {v!r}")
        out.append(float(v))
    return tuple(out)


def _load_fractions(value: Any) -> tuple[float, ...]:
    """Offered loads: finite fractions of capacity, each above zero."""
    loads = _float_tuple("loads", value)
    _require(all(math.isfinite(load) and load > 0 for load in loads),
             f"loads must be finite positive fractions, got {value!r}")
    return loads


@dataclass(frozen=True)
class ProfileScenario(ScenarioSpec):
    """One workload through nn -> compiler -> core (the ``profile`` command)."""

    kind: ClassVar[str] = "profile"

    workload: str = _field("mlp0", "a workload name, e.g. mlp0|lstm1|cnn0|bert_s|gpt_s "
                                   "(`repro list` shows all)")
    weight_bits: int = _field(8, "weight operand width in bits", OPERAND_BITS)
    activation_bits: int = _field(8, "activation operand width in bits", OPERAND_BITS)

    def validate(self) -> None:
        if isinstance(self.workload, str):
            _set(self, "workload", self.workload.lower())
        _check_workload(self.workload)
        _check_choice("weight_bits", self.weight_bits, OPERAND_BITS)
        _check_choice("activation_bits", self.activation_bits, OPERAND_BITS)


@dataclass(frozen=True)
class ServeScenario(ScenarioSpec):
    """A fleet serving run: load sweep or trace replay under a p99 SLO."""

    kind: ClassVar[str] = "serve"

    workload: str = _field("mlp0", "any workload from `repro list`, e.g. mlp0 or bert_s")
    platform: str = _field("tpu", "accelerator platform of every replica", PLATFORM_KINDS)
    replicas: int = _field(1, f"number of accelerator replicas; at most {_MAX_REPLICAS:,}")
    slo_ms: float = _field(7.0, "p99 response-time limit in ms")
    policy: str = _field("adaptive", "batching policy; adaptive sizes batches to the SLO",
                         BATCH_POLICIES)
    batch: int | None = _field(None, "batch size for fixed/timeout policies; unset means "
                                     "the latency-bounded batch for the SLO")
    timeout_ms: float | None = _field(None, "batch collection timeout for the timeout policy")
    router: str = _field("round_robin", "replica router; jsq is join-shortest-queue", ROUTERS)
    loads: tuple[float, ...] = _field((0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
                                      "offered loads as fractions of fleet capacity")
    requests: int = _field(20000, "requests simulated per operating point")
    seed: int = _field(0, "random seed")
    traffic: str = _field("poisson", "arrival process for the load sweep", TRAFFIC_KINDS)
    diurnal_swing: float = _field(0.5, "diurnal load swing in [0, 1) around the mean")
    diurnal_period_s: float | None = _field(
        None, "diurnal period in seconds; unset means one full cycle per operating point")
    trace: str | None = _field(
        None, "replay this arrival-trace file (one timestamp per line) "
              "instead of sweeping loads")

    @property
    def slo_seconds(self) -> float:
        return self.slo_ms * 1e-3

    def validate(self) -> None:
        if isinstance(self.workload, str):
            _set(self, "workload", self.workload.lower())
        _check_workload(self.workload)
        _check_choice("platform", self.platform, PLATFORM_KINDS)
        _check_replicas("replicas", self.replicas)
        _check_positive("slo_ms", self.slo_ms)
        _check_choice("policy", self.policy, BATCH_POLICIES)
        _check_optional_positive("batch", self.batch, integer=True)
        _check_optional_positive("timeout_ms", self.timeout_ms)
        _check_choice("router", self.router, ROUTERS)
        _set(self, "loads", _load_fractions(self.loads))
        _check_positive("requests", self.requests, integer=True)
        _check_seed(self.seed)
        _check_choice("traffic", self.traffic, TRAFFIC_KINDS)
        _require(
            _finite(self.diurnal_swing) and 0 <= self.diurnal_swing < 1,
            f"diurnal_swing must be in [0, 1), got {self.diurnal_swing!r}",
        )
        _check_optional_positive("diurnal_period_s", self.diurnal_period_s)
        _require(self.trace is None or isinstance(self.trace, str),
                 f"trace must be a file path or null, got {self.trace!r}")


@dataclass(frozen=True)
class DatacenterScenario(ScenarioSpec):
    """Energy-aware capacity planning: provision, autoscale, and price."""

    kind: ClassVar[str] = "datacenter"

    workload: str = _field("mlp0", "any workload from `repro list`")
    slo_ms: float = _field(7.0, "p99 response-time limit in ms")
    platforms: tuple[str, ...] = _field(("cpu", "gpu", "tpu"),
                                        "platforms to provision and compare")
    rate: float = _field(20000.0, "mean offered load, requests/s")
    swing: float = _field(0.6, "diurnal swing in [0, 1) around the mean")
    requests: int = _field(20000, "requests simulated over one diurnal cycle")
    max_replicas: int = _field(32, f"provisioning search ceiling per platform; "
                                   f"at most {_MAX_REPLICAS:,}")
    router: str = _field("jsq", "replica router; jsq is join-shortest-queue", ROUTERS)
    seed: int = _field(0, "random seed")
    usd_per_kwh: float = _field(0.10, "electricity price, $/kWh")
    pue: float = _field(1.5, "power usage effectiveness, >= 1")
    capex_per_watt: float = _field(12.0, "CapEx per provisioned TDP Watt, $")

    @property
    def slo_seconds(self) -> float:
        return self.slo_ms * 1e-3

    def validate(self) -> None:
        if isinstance(self.workload, str):
            _set(self, "workload", self.workload.lower())
        _check_workload(self.workload)
        _check_positive("slo_ms", self.slo_ms)
        _require(isinstance(self.platforms, (tuple, list)) and len(self.platforms) > 0,
                 f"platforms must be a non-empty subset of "
                 f"{','.join(PLATFORM_KINDS)}, got {self.platforms!r}")
        _set(self, "platforms", tuple(str(k) for k in self.platforms))
        unknown = [k for k in self.platforms if k not in PLATFORM_KINDS]
        _require(not unknown,
                 f"platforms must be a subset of {','.join(PLATFORM_KINDS)}, "
                 f"got {','.join(self.platforms)!r}")
        _check_positive("rate", self.rate)
        _require(_finite(self.swing) and 0 <= self.swing < 1,
                 f"swing must be in [0, 1), got {self.swing!r}")
        _check_positive("requests", self.requests, integer=True)
        _check_replicas("max_replicas", self.max_replicas)
        _check_choice("router", self.router, ROUTERS)
        _check_seed(self.seed)
        _check_positive("usd_per_kwh", self.usd_per_kwh)
        _require(_finite(self.pue) and self.pue >= 1.0,
                 f"pue must be >= 1.0 and finite (power usage effectiveness), "
                 f"got {self.pue!r}")
        _check_positive("capex_per_watt", self.capex_per_watt)


def _nested_from_dict(cls: type, label: str, data: Any) -> Any:
    """Coerce a nested plain dict (or pass through an instance) to ``cls``."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise SpecError(f"{label} must be a JSON object, got {data!r}")
    payload = dict(data)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    _require(not unknown,
             f"unknown field(s) {', '.join(unknown)} for {label}; "
             f"valid fields: {', '.join(sorted(names))}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise SpecError(f"invalid {label}: {exc}") from exc


@dataclass(frozen=True)
class ClusterSpec:
    """One serving fleet inside a region of a :class:`GlobalScenario`."""

    name: str
    platform: str = "tpu"
    replicas: int = 1
    #: Routing cost weight: the ``cost`` policy fills cheap clusters first.
    cost: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 f"cluster name must be a non-empty string, got {self.name!r}")
        _check_choice("cluster platform", self.platform, PLATFORM_KINDS)
        _check_replicas("cluster replicas", self.replicas)
        _check_positive("cluster cost", self.cost)


@dataclass(frozen=True)
class RegionSpec:
    """One geographic demand source (with its clusters) of a global run."""

    name: str
    rate_rps: float = 50000.0
    swing: float = 0.6
    #: Diurnal cycle offset as a fraction of the period (follow-the-sun).
    phase: float = 0.0
    clusters: tuple[ClusterSpec, ...] = ()

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 f"region name must be a non-empty string, got {self.name!r}")
        _check_positive(f"region {self.name!r} rate_rps", self.rate_rps)
        _require(_finite(self.swing) and 0 <= self.swing < 1,
                 f"region {self.name!r} swing must be in [0, 1), "
                 f"got {self.swing!r}")
        _require(_finite(self.phase),
                 f"region {self.name!r} phase must be a finite number, "
                 f"got {self.phase!r}")
        _require(isinstance(self.clusters, (tuple, list)),
                 f"region {self.name!r} clusters must be a list, "
                 f"got {self.clusters!r}")
        object.__setattr__(self, "clusters", tuple(
            _nested_from_dict(ClusterSpec, f"cluster of region {self.name!r}", c)
            for c in self.clusters
        ))


#: Three regions a third of a cycle apart, one TPU cluster each: the
#: canonical follow-the-sun world (peaks roll, capacity is shared).
#: Cluster costs differ so the ``cost`` routing policy has a real
#: trade to make (cheap asia capacity vs local RTT-free serving).
DEFAULT_REGIONS: tuple[RegionSpec, ...] = (
    RegionSpec(name="americas", rate_rps=120000.0, phase=0.0,
               clusters=(ClusterSpec(name="us-tpu", cost=1.0),)),
    RegionSpec(name="europe", rate_rps=120000.0, phase=1.0 / 3.0,
               clusters=(ClusterSpec(name="eu-tpu", cost=1.2),)),
    RegionSpec(name="asia", rate_rps=120000.0, phase=2.0 / 3.0,
               clusters=(ClusterSpec(name="ap-tpu", cost=0.7),)),
)

GLOBE_BACKENDS = ("exact", "hybrid")

#: The exact backend materializes every arrival: refuse worlds whose
#: expected request count would take minutes to event-simulate.
_EXACT_MAX_REQUESTS = 2_000_000

@dataclass(frozen=True)
class GlobalScenario(ScenarioSpec):
    """Planet-scale serving: regions, routing, and the hybrid backend."""

    kind: ClassVar[str] = "globe"

    workload: str = _field("mlp0", "any workload from `repro list`")
    slo_ms: float = _field(7.0, "p99 response-time limit in ms")
    policy: str = _field("adaptive", "cluster batching policy; adaptive sizes batches to the SLO",
                         BATCH_POLICIES)
    batch: int | None = _field(None, "batch size for fixed/timeout policies; unset means "
                                     "the latency-bounded batch for the SLO")
    timeout_ms: float | None = _field(None, "batch collection timeout for the timeout policy")
    router: str = _field("round_robin", "replica router inside each cluster", ROUTERS)
    routing: str = _field("latency", "global routing policy: latency, cost, or spillover")
    regions: tuple[RegionSpec, ...] = _field(DEFAULT_REGIONS,
                                             "demand regions, each with its clusters")
    period_s: float = _field(120.0, "diurnal period in seconds")
    duration_s: float = _field(120.0, "simulated horizon in seconds")
    bins: int = _field(24, "time bins over the horizon")
    backend: str = _field("hybrid", "hybrid prices rates; exact event-simulates every "
                                    "request, for small traces only", GLOBE_BACKENDS)
    knee: tuple[float, float] = _field((0.35, 1.0), "lo,hi utilization bounds of the "
                                                    "hybrid's event band")
    spill_threshold: float = _field(0.9, "fill clusters to this utilization before "
                                         "spilling demand")
    default_rtt_ms: float = _field(80.0, "inter-region round trip in ms")
    rtt_ms: tuple[tuple[str, str, float], ...] = _field(
        (), "symmetric overrides: (region_a, region_b, rtt_ms) triples")
    event_requests: int = _field(4000, "trace length of each memoized event-regime sample")
    seed: int = _field(0, "random seed")

    @property
    def slo_seconds(self) -> float:
        return self.slo_ms * 1e-3

    def validate(self) -> None:
        if isinstance(self.workload, str):
            _set(self, "workload", self.workload.lower())
        _check_workload(self.workload)
        _check_positive("slo_ms", self.slo_ms)
        _check_choice("policy", self.policy, BATCH_POLICIES)
        _check_optional_positive("batch", self.batch, integer=True)
        _check_optional_positive("timeout_ms", self.timeout_ms)
        _check_choice("router", self.router, ROUTERS)
        # Lazy, like the workload registry: spec import stays light.
        from repro.globe.routing import ROUTING_POLICIES

        _check_choice("routing", self.routing, tuple(sorted(ROUTING_POLICIES)))
        _require(isinstance(self.regions, (tuple, list)) and len(self.regions) > 0,
                 f"regions must be a non-empty list, got {self.regions!r}")
        _set(self, "regions", tuple(
            _nested_from_dict(RegionSpec, "region", r) for r in self.regions
        ))
        names = [r.name for r in self.regions]
        _require(len(set(names)) == len(names),
                 f"region names must be unique, got {', '.join(names)}")
        cluster_names = [c.name for r in self.regions for c in r.clusters]
        _require(len(cluster_names) > 0,
                 "at least one region needs a cluster (the world has demand "
                 "but no capacity)")
        _require(len(set(cluster_names)) == len(cluster_names),
                 f"cluster names must be unique across regions, "
                 f"got {', '.join(cluster_names)}")
        _check_positive("period_s", self.period_s)
        _check_positive("duration_s", self.duration_s)
        _check_positive("bins", self.bins, integer=True)
        _check_choice("backend", self.backend, GLOBE_BACKENDS)
        knee = _float_tuple("knee", self.knee)
        _require(len(knee) == 2 and 0 < knee[0] < knee[1] <= 1.0,
                 f"knee must be (lo, hi) with 0 < lo < hi <= 1, got {self.knee!r}")
        _set(self, "knee", knee)
        _require(
            _finite(self.spill_threshold) and 0 < self.spill_threshold <= 1,
            f"spill_threshold must be in (0, 1], got {self.spill_threshold!r}",
        )
        _check_non_negative("default_rtt_ms", self.default_rtt_ms)
        _require(isinstance(self.rtt_ms, (tuple, list)),
                 f"rtt_ms must be a list of (region, region, ms) triples, "
                 f"got {self.rtt_ms!r}")
        triples = []
        for entry in self.rtt_ms:
            ok = (isinstance(entry, (tuple, list)) and len(entry) == 3
                  and isinstance(entry[0], str) and isinstance(entry[1], str)
                  and _finite(entry[2]) and entry[2] >= 0)
            _require(ok,
                     f"each rtt_ms entry must be [region_a, region_b, finite ms >= 0], "
                     f"got {entry!r}")
            a, b, ms = entry
            _require(a in names and b in names,
                     f"rtt_ms names unknown region in {entry!r}; "
                     f"regions: {', '.join(names)}")
            _require(a != b, f"rtt_ms cannot override a region's self-RTT: {entry!r}")
            triples.append((a, b, float(ms)))
        _set(self, "rtt_ms", tuple(triples))
        _check_positive("event_requests", self.event_requests, integer=True)
        _check_seed(self.seed)
        if self.backend == "exact":
            expected = sum(r.rate_rps for r in self.regions) * self.duration_s
            _require(
                expected <= _EXACT_MAX_REQUESTS,
                f"backend='exact' would simulate ~{expected:,.0f} requests "
                f"(> {_EXACT_MAX_REQUESTS:,}); shrink rate_rps/duration_s or "
                f"use backend='hybrid' (exact is for small validation traces)",
            )


LLM_SCHEDULERS = ("continuous", "fixed")
LLM_MODES = ("aggregated", "disaggregated")


@dataclass(frozen=True)
class LLMServeScenario(ScenarioSpec):
    """Iteration-level transformer decode serving under a KV-cache budget.

    Requests join and leave the running batch at token granularity
    (``scheduler="continuous"``) or as request-level gangs
    (``scheduler="fixed"``, the Table 4 baseline);
    ``mode="disaggregated"`` splits the fleet into prefill and decode
    pools with a KV transfer hop and optional per-pool autoscaling.
    """

    kind: ClassVar[str] = "llm"

    workload: str = _field("gpt_s", "transformer extension workload from `repro list`")
    scheduler: str = _field("continuous", "iteration-level (continuous) vs request-level "
                                          "gang (fixed) batching", LLM_SCHEDULERS)
    mode: str = _field("aggregated", "one pool, or split prefill/decode pools", LLM_MODES)
    chips: int = _field(2, f"decode-pool chips, the whole fleet when aggregated; "
                           f"at most {_MAX_REPLICAS:,}")
    prefill_chips: int = _field(1, f"prefill-pool chips in disaggregated mode; "
                                   f"at most {_MAX_REPLICAS:,}")
    max_batch: int = _field(32, "decode batch-slot cap per chip")
    prefill_batch: int = _field(8, "prompts per batched prefill pass")
    prompt_tokens: int = _field(96, "mean prompt length m; lengths are sampled "
                                    "uniform in [m - m//2, m + m//2]")
    decode_tokens: int = _field(48, "mean generated length, sampled like prompt_tokens")
    requests: int = _field(2000, "requests per load point")
    loads: tuple[float, ...] = _field((0.3, 0.5, 0.7, 0.85, 0.95),
                                      "offered loads as fractions of the ideal "
                                      "decode-pool token capacity")
    slo_tpot_ms: float = _field(1.5, "p99 time-per-token SLO in ms")
    slo_ttft_ms: float = _field(100.0, "time-to-first-token SLO in ms")
    kv_reserve_mib: float = _field(2.0, "Unified Buffer MiB held back from the KV cache "
                                        "for activations")
    transfer_ms: float = _field(0.2, "prefill->decode KV hop: fixed RTT in ms, plus the "
                                     "payload over the link")
    link_gbps: float = _field(100.0, "pool interconnect bandwidth in Gb/s")
    autoscale: bool = _field(False, "per-pool reactive autoscaling, disaggregated mode only")
    seed: int = _field(0, "random seed")

    @property
    def slo_tpot_seconds(self) -> float:
        return self.slo_tpot_ms * 1e-3

    @property
    def slo_ttft_seconds(self) -> float:
        return self.slo_ttft_ms * 1e-3

    def validate(self) -> None:
        if isinstance(self.workload, str):
            _set(self, "workload", self.workload.lower())
        _check_workload(self.workload)
        # Lazy, like the workload registry: decode needs a KV cache, so
        # only the transformer extension family qualifies.
        from repro.nn.workloads import EXTENSION_WORKLOAD_NAMES

        _check_choice("workload", self.workload, EXTENSION_WORKLOAD_NAMES)
        _check_choice("scheduler", self.scheduler, LLM_SCHEDULERS)
        _check_choice("mode", self.mode, LLM_MODES)
        for field in ("chips", "prefill_chips"):
            _check_replicas(field, getattr(self, field), "LLM engine", "chip")
        _check_positive("max_batch", self.max_batch, integer=True)
        _check_positive("prefill_batch", self.prefill_batch, integer=True)
        _check_positive("prompt_tokens", self.prompt_tokens, integer=True)
        _check_positive("decode_tokens", self.decode_tokens, integer=True)
        _check_positive("requests", self.requests, integer=True)
        _set(self, "loads", _load_fractions(self.loads))
        _check_positive("slo_tpot_ms", self.slo_tpot_ms)
        _check_positive("slo_ttft_ms", self.slo_ttft_ms)
        _check_non_negative("kv_reserve_mib", self.kv_reserve_mib)
        _check_non_negative("transfer_ms", self.transfer_ms)
        _check_positive("link_gbps", self.link_gbps)
        _require(isinstance(self.autoscale, bool),
                 f"autoscale must be true or false, got {self.autoscale!r}")
        _require(not (self.autoscale and self.mode != "disaggregated"),
                 "autoscale=true needs mode='disaggregated' (per-pool "
                 "autoscalers only exist once the fleet is split)")
        _check_seed(self.seed)


def _norm_axis_value(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_norm_axis_value(v) for v in value)
    return value


@dataclass(frozen=True)
class SweepSpec(ScenarioSpec):
    """Cross-product any scenario fields over a base scenario.

    ``axes`` maps field names to candidate values; ``expand`` yields one
    validated scenario per combination (batch-size/load/replica sweeps
    as data, not loops in code)::

        SweepSpec(base=ServeScenario(), axes={"replicas": (1, 2, 4)})
    """

    kind: ClassVar[str] = "sweep"

    base: ScenarioSpec = None  # type: ignore[assignment]
    #: Normalized to a name-sorted tuple of (field, values) pairs.
    axes: Any = ()

    def validate(self) -> None:
        if isinstance(self.base, Mapping):
            _set(self, "base", ScenarioSpec.from_dict(self.base))
        _require(isinstance(self.base, ScenarioSpec),
                 f"sweep base must be a scenario (or its dict form), "
                 f"got {self.base!r}")
        _require(not isinstance(self.base, SweepSpec),
                 "sweeps cannot nest: base must be a concrete scenario")
        items = self.axes.items() if isinstance(self.axes, Mapping) else self.axes
        try:
            pairs = [(str(name), values) for name, values in items]
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"axes must map field names to value lists, got {self.axes!r}"
            ) from exc
        _require(len(pairs) > 0,
                 "axes must name at least one field to sweep")
        field_names = {f.name for f in dataclasses.fields(self.base)}
        normalized = []
        for name, values in sorted(pairs):
            _require(name in field_names,
                     f"{name!r} is not a field of the {self.base.kind!r} "
                     f"scenario; sweepable fields: {', '.join(sorted(field_names))}")
            _require(isinstance(values, (list, tuple)) and len(values) > 0,
                     f"axis {name!r} needs a non-empty list of values, "
                     f"got {values!r}")
            normalized.append((name, tuple(_norm_axis_value(v) for v in values)))
        _set(self, "axes", tuple(normalized))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "base": self.base.to_dict(),
            "axes": {name: _plain(list(values)) for name, values in self.axes},
        }

    def expand(self) -> list[tuple[dict[str, Any], ScenarioSpec]]:
        """Every (overrides, scenario) combination, validated eagerly."""
        names = [name for name, _ in self.axes]
        combos = itertools.product(*(values for _, values in self.axes))
        expanded = []
        for combo in combos:
            overrides = dict(zip(names, combo))
            expanded.append((overrides, self.base.replace(**overrides)))
        return expanded

    def __len__(self) -> int:
        out = 1
        for _, values in self.axes:
            out *= len(values)
        return out


def scenario_kinds() -> tuple[str, ...]:
    """The registered scenario kinds (``from_dict`` dispatch tags)."""
    return tuple(sorted(_SCENARIO_KINDS))


def load_scenario(path: str) -> ScenarioSpec:
    """Read a scenario (any kind) from a JSON config file."""
    with open(path) as handle:
        text = handle.read()
    try:
        return ScenarioSpec.from_json(text)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc
