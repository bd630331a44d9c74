"""Capacity planning: the cheapest fleet that meets the SLO under real load.

The question the paper poses but cannot publish the answer to: given a
diurnally-loaded service with a 7 ms p99 limit, how many accelerators of
each kind do you buy, and what do they cost to run?  This module sweeps
static replica counts to find the smallest SLO-feasible fleet per
platform (the provisioning decision), then pits autoscaling policies
against that static baseline on the same arrival trace -- the win an
autoscaler can show is OpEx (idle Watts avoided), since the hardware you
must own is set by peak load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    AutoscaledFleet,
    ScalingPolicy,
    StaticPolicy,
)
from repro.datacenter.energy import FleetEnergy, ReplicaPower, fleet_energy
from repro.datacenter.tco import CostBreakdown, CostModel, fleet_cost
from repro.serving.engine import ServingStats
from repro.serving.fleet import Fleet
from repro.serving.sweep import FleetSpec


@dataclass(frozen=True)
class PlatformPlan:
    """The chosen static fleet for one platform on one arrival trace."""

    kind: str
    replicas: int
    meets_slo: bool
    stats: ServingStats
    energy: FleetEnergy
    cost: CostBreakdown


@dataclass(frozen=True)
class PolicyOutcome:
    """One autoscaling policy's showing on the shared arrival trace."""

    policy: str
    peak_replicas: int
    mean_powered: float
    stats: ServingStats
    energy: FleetEnergy
    cost: CostBreakdown


def plan_capacity(
    spec: FleetSpec,
    arrivals: np.ndarray,
    max_replicas: int = 32,
    cost_model: CostModel = CostModel(),
) -> PlatformPlan:
    """Smallest static fleet of ``spec``'s platform meeting its SLO.

    Starts from the mean-load lower bound (you can never run below mean
    offered rate over capacity) and grows until the achieved p99 fits
    ``spec.slo_seconds``; if even ``max_replicas`` misses, the largest
    fleet is returned with ``meets_slo=False``.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    per_replica = spec.capacity_rps() / spec.replicas
    mean_rate = arrivals.size / float(arrivals[-1]) if arrivals[-1] > 0 else 1.0
    start = max(1, math.ceil(mean_rate / per_replica))
    if start > max_replicas:
        raise ValueError(
            f"mean load needs {start} replicas, above max_replicas={max_replicas}"
        )
    for n in range(start, max_replicas + 1):
        fleet = Fleet(
            [spec.make_replica(i) for i in range(n)], router=spec.router
        )
        with obs.span(
            f"provision:{spec.platform.kind}", cat="datacenter",
            replicas=n, workload=spec.model.name,
        ):
            result = fleet.run(arrivals)
        stats = result.stats(slo_seconds=spec.slo_seconds)
        if stats.p99_seconds <= spec.slo_seconds or n == max_replicas:
            power = ReplicaPower(spec.platform.kind, app=spec.model.name)
            energy = fleet_energy(result, power)
            cost = fleet_cost(
                spec.platform.kind, n, energy.joules, result.horizon,
                int(result.responses.size), cost_model,
            )
            return PlatformPlan(
                kind=spec.platform.kind,
                replicas=n,
                meets_slo=stats.p99_seconds <= spec.slo_seconds,
                stats=stats,
                energy=energy,
                cost=cost,
            )
    raise AssertionError("unreachable: the max_replicas fleet always returns")


def compare_policies(
    spec: FleetSpec,
    arrivals: np.ndarray,
    policies: list[ScalingPolicy],
    config: AutoscaleConfig,
    cost_model: CostModel = CostModel(),
) -> list[PolicyOutcome]:
    """Run each policy on the same trace; static policies skip the scaler.

    CapEx is charged on *peak* powered replicas (the hardware that must
    be owned); energy is integrated only over each replica's powered
    span, so over-provisioning shows up as Watts and under-provisioning
    as SLO misses in ``stats``.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    power = ReplicaPower(spec.platform.kind, app=spec.model.name)
    per_replica = spec.capacity_rps() / spec.replicas
    outcomes = []
    for policy in policies:
        if isinstance(policy, StaticPolicy):
            fleet = Fleet(
                [spec.make_replica(i) for i in range(policy.replicas)],
                router=spec.router,
            )
            with obs.span(
                f"policy:{policy.name}", cat="datacenter",
                platform=spec.platform.kind,
            ):
                result = fleet.run(arrivals)
            peak, mean_powered = policy.replicas, float(policy.replicas)
            energy = fleet_energy(result, power)
        else:
            with obs.span(
                f"policy:{policy.name}", cat="datacenter",
                platform=spec.platform.kind,
            ):
                scaled = AutoscaledFleet(
                    spec.make_replica, policy, config,
                    replica_rps=per_replica, router=spec.router,
                ).run(arrivals)
            result = scaled.fleet
            peak, mean_powered = scaled.peak_replicas, scaled.mean_powered
            energy = fleet_energy(
                result, power, powered=scaled.powered, provisioned_replicas=peak,
            )
        outcomes.append(PolicyOutcome(
            policy=policy.name,
            peak_replicas=peak,
            mean_powered=mean_powered,
            stats=result.stats(slo_seconds=spec.slo_seconds),
            energy=energy,
            cost=fleet_cost(
                spec.platform.kind, peak, energy.joules, result.horizon,
                int(result.responses.size), cost_model,
            ),
        ))
    return outcomes
