"""Autoscaling: grow and shrink the replica set while the fleet serves.

The paper's fleets are statically provisioned for peak, which is exactly
why Figure 10's proportionality penalty hurts: at the 10--40% loads
datacenters actually see, the TPU still draws ~90% of full power.  An
autoscaler trades that idle burn against SLO risk -- replicas take
``spinup_seconds`` to come online, so scaling too late shows up as p99
violations and scaling too early as wasted Watts.  Three policies:

* :class:`StaticPolicy`     -- the paper's baseline: a fixed fleet.
* :class:`ReactivePolicy`   -- target-tracking on observed utilization
  (the classic HPA rule ``desired = ceil(active * util / target)``),
  with scale-up/scale-down cooldowns.
* :class:`PredictivePolicy` -- diurnal-aware: provisions for the traffic
  the known day/night cycle will offer one spin-up lead ahead.

The simulation itself is the shared :class:`~repro.serving.fleet.FleetSim`
core driven with a dynamic routing set: deactivated replicas stop
receiving work but stay simulated until their queues drain, and every
replica's powered (on, off) span is reported for energy accounting.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Aliased: `obs` is this module's naming convention for FleetObservation.
from repro import obs as obslib
from repro.serving.fleet import FleetResult, FleetSim, Replica, check_router

#: Trace track (Chrome tid on :data:`repro.obs.SIM_PID`) reserved for the
#: autoscaler's control-tick markers, well above any replica's track.
AUTOSCALER_TID = 1000


@dataclass(frozen=True)
class FleetObservation:
    """What a scaling policy sees at a control tick."""

    now: float
    active: int  # replicas currently serving
    spinning_up: int  # provisioned but not yet online
    queued: int  # requests waiting across active replicas
    arrival_rate: float  # offered requests/s over the last control window
    utilization: float  # active-replica busy fraction over the last window
    replica_rps: float  # one replica's full-batch capacity


class ScalingPolicy(abc.ABC):
    """Maps an observation to a desired replica count."""

    name: str

    @abc.abstractmethod
    def desired_replicas(self, obs: FleetObservation) -> int:
        """Total replicas (active + spinning up) the fleet should have."""


class StaticPolicy(ScalingPolicy):
    """The paper's baseline: a fixed, peak-provisioned fleet."""

    def __init__(self, replicas: int) -> None:
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.name = f"static({replicas})"
        self.replicas = replicas

    def desired_replicas(self, obs: FleetObservation) -> int:
        return self.replicas


class ReactivePolicy(ScalingPolicy):
    """Rate-tracking with queue-depth/utilization escape hatches.

    The primary signal is the *offered rate*: ``desired = ceil(rate /
    (target_utilization * replica_rps))``.  Busy-fraction tracking (the
    classic HPA rule) is unsound for batched serving -- spreading the
    same load over more replicas shrinks every batch, so per-request
    service cost rises and the fleet *stays* busy, which reads as demand
    and runs away to ``max_replicas`` (the batch-efficiency collapse the
    batch-size studies warn about).  Utilization and queue depth instead
    act as thresholds: a saturated window (``>= high_utilization``) or a
    standing backlog (``> max_backlog_per_replica`` per active replica)
    means the rate estimate lags reality, and buys one extra replica per
    control tick.  Scale-ups apply immediately (missing the SLO is worse
    than a few idle Watts); scale-downs wait out ``cooldown_seconds``
    since the last change so queue noise doesn't thrash the fleet.
    """

    name = "reactive"

    def __init__(
        self,
        target_utilization: float = 0.7,
        high_utilization: float = 0.9,
        max_backlog_per_replica: int = 64,
        cooldown_seconds: float = 0.0,
    ) -> None:
        if not 0 < target_utilization <= high_utilization <= 1:
            raise ValueError(
                "need 0 < target_utilization <= high_utilization <= 1, got "
                f"{target_utilization} and {high_utilization}"
            )
        if max_backlog_per_replica <= 0:
            raise ValueError("max_backlog_per_replica must be positive")
        if cooldown_seconds < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown_seconds}")
        self.target = target_utilization
        self.high = high_utilization
        self.max_backlog = max_backlog_per_replica
        self.cooldown = cooldown_seconds
        self._last_change = -math.inf

    def desired_replicas(self, obs: FleetObservation) -> int:
        current = obs.active + obs.spinning_up
        desired = max(math.ceil(obs.arrival_rate / (self.target * obs.replica_rps)), 1)
        if (
            obs.utilization >= self.high
            or obs.queued > self.max_backlog * max(obs.active, 1)
        ):
            # The rate estimate lags a standing queue or a saturated
            # fleet; nudge one step past whatever is already coming up.
            desired = max(desired, current + 1)
        if desired > current:
            self._last_change = obs.now
            return desired
        if desired < current and obs.now - self._last_change >= self.cooldown:
            self._last_change = obs.now
            return desired
        return current


class PredictivePolicy(ScalingPolicy):
    """Diurnal-aware provisioning: scale for the load a lead-time ahead.

    Knows the traffic model (``rate(t) = mean * (1 + swing *
    sin(2 pi t / period))``, the :func:`~repro.serving.traffic.
    diurnal_arrivals` generator) and provisions
    ``ceil(rate(t + lead) / (target_utilization * replica_rps))`` so
    capacity is already online when the morning ramp arrives.
    """

    name = "predictive"

    def __init__(
        self,
        mean_rate: float,
        swing: float,
        period_seconds: float,
        lead_seconds: float,
        target_utilization: float = 0.6,
    ) -> None:
        if mean_rate <= 0:
            raise ValueError(f"mean_rate must be positive, got {mean_rate}")
        if not 0 <= swing < 1:
            raise ValueError(f"swing must be in [0, 1), got {swing}")
        if period_seconds <= 0:
            raise ValueError(f"period must be positive, got {period_seconds}")
        if not 0 < target_utilization <= 1:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {target_utilization}"
            )
        self.mean_rate = mean_rate
        self.swing = swing
        self.period = period_seconds
        self.lead = lead_seconds
        self.target = target_utilization

    def rate_at(self, t: float) -> float:
        return self.mean_rate * (
            1.0 + self.swing * math.sin(2.0 * math.pi * t / self.period)
        )

    def desired_replicas(self, obs: FleetObservation) -> int:
        expected = self.rate_at(obs.now + self.lead)
        return math.ceil(expected / (self.target * obs.replica_rps))


@dataclass(frozen=True)
class AutoscaleConfig:
    """Mechanics of the control loop (all in simulation seconds)."""

    control_interval_seconds: float
    spinup_seconds: float
    min_replicas: int = 1
    max_replicas: int = 64

    def __post_init__(self) -> None:
        if self.control_interval_seconds <= 0:
            raise ValueError("control interval must be positive")
        if self.spinup_seconds < 0:
            raise ValueError("spin-up latency must be non-negative")
        if not 0 < self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 0 < min <= max, got {self.min_replicas}..{self.max_replicas}"
            )


@dataclass(frozen=True)
class AutoscaleResult:
    """A completed autoscaled run: responses plus provisioning history."""

    fleet: FleetResult
    powered: tuple[tuple[float, float], ...]  # per replica, FleetResult order
    timeline: tuple[tuple[float, int], ...]  # (time, active count) steps
    peak_replicas: int
    mean_powered: float  # time-averaged powered replica count

    def stats(self, **kwargs):
        return self.fleet.stats(**kwargs)


class AutoscaledFleet:
    """A fleet whose replica count follows a :class:`ScalingPolicy`."""

    def __init__(
        self,
        make_replica: Callable[[int], Replica],
        policy: ScalingPolicy,
        config: AutoscaleConfig,
        replica_rps: float,
        router: str = "jsq",
    ) -> None:
        if replica_rps <= 0:
            raise ValueError(f"replica_rps must be positive, got {replica_rps}")
        check_router(router)
        self.make_replica = make_replica
        self.policy = policy
        self.config = config
        self.replica_rps = replica_rps
        self.router = router

    def _clamp(self, n: int) -> int:
        return min(max(n, self.config.min_replicas), self.config.max_replicas)

    def run(self, arrivals: np.ndarray) -> AutoscaleResult:
        arrivals = np.asarray(arrivals, dtype=float)
        cfg = self.config
        interval = cfg.control_interval_seconds

        # Bootstrap: the first window's offered rate is known from the
        # trace itself, so the initial fleet is sized like a tick at t=0.
        rate0 = float(np.searchsorted(arrivals, interval, side="right")) / interval
        boot = FleetObservation(
            now=0.0, active=cfg.min_replicas, spinning_up=0, queued=0,
            arrival_rate=rate0, utilization=min(rate0 / (cfg.min_replicas * self.replica_rps), 1.0),
            replica_rps=self.replica_rps,
        )
        initial = self._clamp(self.policy.desired_replicas(boot))
        replicas = [self.make_replica(i) for i in range(initial)]
        sim = FleetSim(replicas, self.router, arrivals)

        powered_on = {id(r): 0.0 for r in replicas}
        deactivated_at: dict[int, float] = {}
        spinning: list[Replica] = []  # provisioned, not yet online
        timeline: list[tuple[float, int]] = [(0.0, initial)]

        def activate(replica: Replica) -> None:
            if id(replica) in deactivated_at:  # cancelled during spin-up
                return
            spinning.remove(replica)
            sim.eligible.append(replica)
            timeline.append((sim.now, len(sim.eligible)))

        def window_utilization(now: float) -> float:
            start = max(now - interval, 0.0)
            busy = 0.0
            for replica in sim.eligible:
                for s, e in reversed(replica.server.busy_intervals):
                    if e <= start and s <= start:
                        break
                    busy += max(0.0, min(e, now) - max(s, start))
            span = (now - start) * max(len(sim.eligible), 1)
            return min(busy / span, 1.0) if span > 0 else 0.0

        def observe(now: float) -> FleetObservation:
            start = max(now - interval, 0.0)
            lo, hi = np.searchsorted(arrivals, [start, now], side="right")
            rate = float(hi - lo) / (now - start) if now > start else 0.0
            return FleetObservation(
                now=now,
                active=len(sim.eligible),
                spinning_up=len(spinning),
                queued=sum(r.backlog for r in sim.eligible),
                arrival_rate=rate,
                utilization=window_utilization(now),
                replica_rps=self.replica_rps,
            )

        def scale_to(desired: int, now: float) -> None:
            current = len(sim.eligible) + len(spinning)
            while current < desired:  # spin up
                replica = self.make_replica(len(sim.replicas))
                powered_on[id(replica)] = now  # pays idle Watts from now
                sim.replicas.append(replica)
                spinning.append(replica)
                sim.schedule(
                    now + cfg.spinup_seconds, lambda _t, r=replica: activate(r)
                )
                current += 1
            while current > desired:  # scale down
                if spinning:  # cancelling a spin-up is free and instant
                    replica = spinning.pop()
                elif len(sim.eligible) > cfg.min_replicas:
                    # Retire the emptiest replica (ties break on list
                    # position, keeping runs deterministic); it stops
                    # receiving work now and powers off once its queue
                    # drains.
                    pick = min(
                        range(len(sim.eligible)),
                        key=lambda i: (sim.eligible[i].backlog, i),
                    )
                    replica = sim.eligible.pop(pick)
                    timeline.append((now, len(sim.eligible)))
                else:
                    break
                deactivated_at[id(replica)] = now
                current -= 1

        def tick(_t: float) -> None:
            now = sim.now
            observation = observe(now)
            desired = self._clamp(self.policy.desired_replicas(observation))
            if obslib.TRACER.enabled:
                obslib.TRACER.sim_span(
                    "autoscale:tick", observation.now, 0.0, cat="autoscaler",
                    tid=AUTOSCALER_TID,
                    desired=desired, active=observation.active,
                    spinning=observation.spinning_up, queued=observation.queued,
                    rate_rps=observation.arrival_rate,
                    utilization=observation.utilization,
                )
            scale_to(desired, now)
            if sim.pending > 0:
                sim.schedule(now + interval, tick)

        sim.schedule(interval, tick)
        try:
            result = sim.run()
        finally:
            # ``tick`` reschedules itself through its own closure cell;
            # clearing the cell breaks that cycle, so the finished sim is
            # freed by reference counting, not at the next collection.
            del tick

        horizon = result.horizon
        powered: list[tuple[float, float]] = []
        for replica in sim.replicas:
            on = powered_on[id(replica)]
            off = deactivated_at.get(id(replica), horizon)
            # A retired replica keeps burning until its queue drained.
            if replica.server.busy_intervals:
                off = max(off, replica.server.busy_intervals[-1][1])
            powered.append((on, min(max(off, on), horizon)))
        span = sum(off - on for on, off in powered)
        return AutoscaleResult(
            fleet=result,
            powered=tuple(powered),
            timeline=tuple(timeline),
            peak_replicas=max(count for _, count in timeline),
            mean_powered=span / horizon if horizon > 0 else 0.0,
        )
