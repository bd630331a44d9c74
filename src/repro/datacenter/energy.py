"""Energy accounting: what a simulated fleet burns at its *achieved* load.

Section 6 / Figure 10's point is that none of the three chips is
energy-proportional -- the TPU draws 88% of full power at 10% load --
and real inference fleets run well below peak.  This module closes the
loop between the serving simulator and the power models: each replica's
busy intervals (recorded by :class:`repro.serving.engine.BatchServer`)
become a windowed utilization timeline, each window is priced through
the replica's :class:`~repro.power.proportionality.ReplicaPower` (Figure
10's per-die accounting, host share included), and the integral is
joules.  The result is average Watts, energy per request and
perf/Watt at the load the fleet actually saw -- the paper's
proportionality penalty reproduced in simulation rather than asserted.

Windowing matters: a power curve maps *time-averaged* utilization to
Watts (the measurement the paper's Figure 10 makes), so integrating at
the batch-by-batch timescale would collapse P(u) to a busy/idle
two-point model and the calibrated alpha would never matter.  The
default window is 1% of the horizon (100 samples per run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.power.proportionality import ReplicaPower
from repro.serving.fleet import FleetResult

Interval = tuple[float, float]

#: Fraction of the horizon one utilization window spans by default.
DEFAULT_WINDOW_FRACTION = 0.01


def utilization_timeline(
    intervals: Sequence[Interval],
    span: Interval,
    window_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Busy fraction per window across ``span``.

    Returns ``(durations, utilization)`` -- per-window lengths (the last
    window may be partial) and busy fractions.  Intervals outside the
    span are clipped; overlapping intervals would double-count, but the
    batch server only starts a batch on an idle device, so its record is
    disjoint by construction.
    """
    start, end = span
    if end <= start:
        raise ValueError(f"empty span {span}")
    if window_seconds <= 0:
        raise ValueError(f"window must be positive, got {window_seconds}")
    n_windows = max(1, math.ceil((end - start) / window_seconds))
    edges = start + window_seconds * np.arange(n_windows + 1)
    edges[-1] = end
    durations = np.diff(edges)
    busy = np.zeros(n_windows)
    for s, e in intervals:
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        first = min(int((s - start) / window_seconds), n_windows - 1)
        last = min(int((e - start) / window_seconds), n_windows - 1)
        for i in range(first, last + 1):
            busy[i] += max(0.0, min(e, edges[i + 1]) - max(s, edges[i]))
    # Float roundoff can push a fully-busy window a hair past 1.0, which
    # PowerCurve.watts rejects; clip rather than propagate the noise.
    return durations, np.clip(busy / durations, 0.0, 1.0)


@dataclass(frozen=True)
class ReplicaEnergy:
    """One replica's energy bill over its powered span."""

    name: str
    powered_seconds: float
    busy_seconds: float
    utilization: float  # busy / powered
    joules: float
    avg_watts: float  # joules / powered_seconds
    peak_watts: float


@dataclass(frozen=True)
class FleetEnergy:
    """The fleet's aggregate energy accounting over a simulation."""

    replicas: tuple[ReplicaEnergy, ...]
    horizon_seconds: float
    requests: int
    joules: float
    avg_watts: float  # fleet-total joules / horizon
    peak_watts: float  # every replica powered and at u=1
    utilization: float  # busy / powered, fleet-wide
    energy_per_request_j: float
    perf_per_watt: float  # requests/s per average Watt
    power_ratio: float  # avg/peak -- Figure 10's y-axis at achieved load
    proportionality_penalty: float  # avg watts / ideal proportional watts


def replica_energy(
    intervals: Sequence[Interval],
    powered: Interval,
    power: ReplicaPower,
    window_seconds: float,
    name: str = "",
) -> ReplicaEnergy:
    """Integrate one replica's utilization timeline through its curve."""
    durations, utilization = utilization_timeline(intervals, powered, window_seconds)
    watts = np.array([power.watts(u) for u in utilization])
    joules = float(np.sum(watts * durations))
    powered_seconds = float(np.sum(durations))
    busy_seconds = float(np.sum(utilization * durations))
    return ReplicaEnergy(
        name=name,
        powered_seconds=powered_seconds,
        busy_seconds=busy_seconds,
        utilization=busy_seconds / powered_seconds,
        joules=joules,
        avg_watts=joules / powered_seconds,
        peak_watts=power.peak_w,
    )


def fleet_energy(
    result: FleetResult,
    power: ReplicaPower,
    window_seconds: float | None = None,
    powered: Sequence[Interval] | None = None,
    provisioned_replicas: int | None = None,
) -> FleetEnergy:
    """Energy accounting for a completed fleet simulation.

    ``powered`` gives each replica's (on, off) span -- the autoscaler
    passes its provisioning decisions here; a static fleet defaults to
    powered for the whole horizon.  Replicas whose span is empty (e.g. a
    spin-up cancelled before activation) contribute nothing.
    ``provisioned_replicas`` sets the peak-Watts denominator when the
    owned fleet differs from the replicas the simulation ever created
    (an autoscaled run owns its *peak*, not its churn).
    """
    if not result.busy_intervals:
        raise ValueError(
            "FleetResult carries no busy intervals; rerun the simulation "
            "with the interval-recording BatchServer"
        )
    horizon = result.horizon
    window = horizon * DEFAULT_WINDOW_FRACTION if window_seconds is None else window_seconds
    if powered is None:
        powered = [(0.0, horizon)] * len(result.busy_intervals)
    if len(powered) != len(result.busy_intervals):
        raise ValueError(
            f"{len(powered)} powered spans for {len(result.busy_intervals)} replicas"
        )
    reports = []
    for i, (intervals, span) in enumerate(zip(result.busy_intervals, powered)):
        if span[1] <= span[0]:
            continue
        reports.append(replica_energy(intervals, span, power, window, name=f"{power.kind}{i}"))
    joules = sum(r.joules for r in reports)
    powered_seconds = sum(r.powered_seconds for r in reports)
    busy_seconds = sum(r.busy_seconds for r in reports)
    requests = int(result.responses.size)
    avg_watts = joules / horizon
    # Peak: the provisioned fleet flat out -- what the capacity planner
    # budgets power delivery for.
    owned = (
        len(result.busy_intervals)
        if provisioned_replicas is None
        else provisioned_replicas
    )
    peak_watts = power.peak_w * owned
    utilization = busy_seconds / powered_seconds if powered_seconds else 0.0
    proportional = power.peak_w * busy_seconds / horizon  # ideal: P(u) = u * peak
    return FleetEnergy(
        replicas=tuple(reports),
        horizon_seconds=horizon,
        requests=requests,
        joules=joules,
        avg_watts=avg_watts,
        peak_watts=peak_watts,
        utilization=utilization,
        energy_per_request_j=joules / requests if requests else float("inf"),
        perf_per_watt=(requests / horizon) / avg_watts if avg_watts else 0.0,
        power_ratio=avg_watts / peak_watts if peak_watts else 0.0,
        proportionality_penalty=avg_watts / proportional if proportional else float("inf"),
    )
