"""Load sweeps: p99-vs-throughput operating curves for a fleet.

Generalizes Table 4 from "one device, one batch size" to "N replicas,
any batching policy": sweep offered load from light to near-capacity,
record achieved throughput and tail latency at each point, and report
the largest sustainable throughput whose p99 still fits the SLO -- the
number a capacity planner actually provisions against.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.nn.graph import Model
from repro.platforms.base import DEFAULT_SLA, Platform
from repro.serving.batcher import POLICY_FIELDS, Batcher, make_batcher
from repro.serving.fleet import Fleet, FleetResult, PlatformCurve, Replica
from repro.serving.traffic import poisson_arrivals
from repro.util.tables import TextTable

#: Default offered-load points, as fractions of fleet batch capacity.
DEFAULT_LOAD_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class OperatingPoint:
    """One (offered load, fleet) measurement on the operating curve."""

    offered_rps: float
    load_fraction: float
    throughput_rps: float
    p50_seconds: float
    p99_seconds: float
    utilization: float
    mean_batch: float
    slo_miss_fraction: float
    meets_slo: bool

    def to_row(self) -> dict[str, float | bool]:
        """The point as a JSON-native row (numpy scalars unwrapped)."""
        return {
            name: value.item() if hasattr(value, "item") else value
            for name, value in dataclasses.asdict(self).items()
        }


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to instantiate a fleet and price its capacity.

    Only the sizing fields its policy reads
    (:data:`~repro.serving.batcher.POLICY_FIELDS`) survive construction;
    the others read ``None``.  A fixed or timeout spec
    built without ``batch_size`` serves at the platform's
    latency-bounded batch for ``slo_seconds``, and ``batch_size`` holds
    that batch from construction on, so it is always the batch the fleet
    serves at (``None`` for adaptive).
    """

    platform: Platform
    model: Model
    replicas: int = 1
    policy: str = "adaptive"
    slo_seconds: float = DEFAULT_SLA
    batch_size: int | None = None
    timeout_seconds: float | None = None
    router: str = "round_robin"

    def __post_init__(self) -> None:
        reads = POLICY_FIELDS.get(self.policy, ())
        for name in ("batch_size", "timeout_seconds"):
            if name not in reads:
                object.__setattr__(self, name, None)
        if self.batch_size is None and "batch_size" in reads:
            batch = self.platform.latency_bounded_batch(self.model, self.slo_seconds)
            object.__setattr__(self, "batch_size", batch)

    @cached_property
    def curve(self) -> PlatformCurve:
        # One memoized curve per spec: TPU batch variants compile once
        # across the whole sweep, not once per operating point.
        return PlatformCurve(self.platform, self.model)

    @cached_property
    def batcher(self) -> Batcher:
        # Policies decide from the queue alone, so every replica and
        # build of the spec shares one, with its adaptive wait budgets.
        return make_batcher(
            self.policy,
            self.curve,
            slo_seconds=self.slo_seconds,
            batch_size=self.batch_size,
            timeout_seconds=self.timeout_seconds,
        )

    def make_replica(self, index: int) -> Replica:
        """One replica of this spec (shared latency curve and batcher)."""
        return Replica(self.curve, self.batcher)

    def build(self) -> Fleet:
        return Fleet(
            [self.make_replica(i) for i in range(self.replicas)], router=self.router
        )

    def max_batch(self) -> int:
        """The policy's largest admissible batch on this platform."""
        return self.batcher.max_batch

    def capacity_rps(self) -> float:
        """Aggregate request rate at 100% utilization and full batches."""
        batch = self.max_batch()
        return self.replicas * batch / self.curve.occupancy(batch)


def run_point(
    spec: FleetSpec,
    load_fraction: float,
    n_requests: int = 20000,
    seed: int = 0,
    traffic: Callable[..., np.ndarray] = poisson_arrivals,
) -> tuple[OperatingPoint, FleetResult]:
    """Simulate one offered load (a fraction of fleet capacity).

    ``traffic`` is any ``(rate, n_requests, seed=...)`` arrival generator
    (see :func:`repro.serving.traffic.make_traffic`); the default is the
    paper's implicit Poisson model.
    """
    if load_fraction <= 0:
        raise ValueError(f"load_fraction must be positive, got {load_fraction}")
    offered = spec.capacity_rps() * load_fraction
    fleet = spec.build()
    result = fleet.run(traffic(offered, n_requests, seed=seed))
    stats = result.stats(slo_seconds=spec.slo_seconds)
    point = OperatingPoint(
        offered_rps=offered,
        load_fraction=load_fraction,
        throughput_rps=stats.throughput_rps,
        p50_seconds=stats.p50_seconds,
        p99_seconds=stats.p99_seconds,
        utilization=stats.utilization,
        mean_batch=stats.mean_batch,
        slo_miss_fraction=stats.slo_miss_fraction,
        meets_slo=stats.p99_seconds <= spec.slo_seconds,
    )
    return point, result


def serving_sweep(
    spec: FleetSpec,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    n_requests: int = 20000,
    seed: int = 0,
    traffic: Callable[..., np.ndarray] = poisson_arrivals,
) -> list[OperatingPoint]:
    """The p99-vs-throughput operating curve across a load sweep."""
    return [
        run_point(spec, fraction, n_requests=n_requests, seed=seed, traffic=traffic)[0]
        for fraction in load_fractions
    ]


def max_throughput_under_slo(points: list[OperatingPoint]) -> OperatingPoint | None:
    """The highest-throughput operating point that still meets the SLO."""
    feasible = [p for p in points if p.meets_slo]
    if not feasible:
        return None
    return max(feasible, key=lambda p: p.throughput_rps)


def sweep_table(spec: FleetSpec, points: list[OperatingPoint], title: str = "") -> TextTable:
    """Render an operating curve the way the paper renders Table 4."""
    slo_ms = spec.slo_seconds * 1e3
    table = TextTable(
        ["Load", "Offered/s", "Achieved/s", "p50", "p99", "Util",
         "Mean batch", f"p99<={slo_ms:g}ms?"],
        title=title or (
            f"{spec.platform.name} x{spec.replicas} ({spec.policy} batching, "
            f"{spec.router}) -- {spec.model.name}, SLO {slo_ms:g} ms"
        ),
    )
    for p in points:
        table.add_row([
            f"{p.load_fraction:.0%}",
            f"{p.offered_rps:,.0f}",
            f"{p.throughput_rps:,.0f}",
            f"{p.p50_seconds * 1e3:.2f} ms",
            f"{p.p99_seconds * 1e3:.2f} ms",
            f"{p.utilization:.0%}",
            f"{p.mean_batch:.0f}",
            "yes" if p.meets_slo else "NO",
        ])
    return table
