"""The classic single-server batching-queue models: simulated and closed form.

Requests arrive Poisson; the server collects them into fixed-size batches
(inference batching) and serves FIFO.  Each batch occupies the server for
``occupancy`` seconds but a request's response completes after
``latency`` seconds from batch start -- the two differ on the TPU, where
host work pipelines with device work (occupancy = max of the two,
latency = their sum).  Response time = completion - arrival, measured per
request; p99 is the paper's metric.

The two simulation entry points are thin wrappers over the shared
discrete-event engine in :mod:`repro.serving` (a one-replica fleet with a
fixed batcher for the open-loop case; the engine's closed-loop generator
for the load test).  The general multi-replica/multi-policy simulator
lives in :mod:`repro.serving.fleet`.

Alongside them sit the *closed-form* pieces -- Erlang-C, M/M/c and
M/D/c mean waits, and a fluid backlog recurrence.  The planet-scale
hybrid backend (:mod:`repro.globe.backend`) calls these to price
clusters far from the SLO knee without paying event-loop time:
:func:`mdc_mean_wait` below the knee, :func:`fluid_backlog`'s step for
the backlog it carries above it, and the exact event engine only in
between.  They have no second copy there, so their property tests
cover the code the backend runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.serving.batcher import FixedBatcher
from repro.serving.engine import ConstantCurve, run_closed_loop, summarize
from repro.serving.fleet import Fleet, Replica
from repro.serving.traffic import poisson_arrivals


def erlang_c(servers: int, utilization: float) -> float:
    """The probability an M/M/c arrival has to wait (the Erlang-C formula).

    ``utilization`` is per-server (``rho = rate / (c * mu)``).  At or
    above 1.0 the queue is unstable and every arrival waits, so the
    function saturates at 1.0 rather than raising -- callers probing a
    load sweep shouldn't have to special-case the overloaded points.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    if utilization < 0:
        raise ValueError(f"utilization must be non-negative, got {utilization}")
    if utilization >= 1.0:
        return 1.0
    offered = servers * utilization  # load in Erlangs
    # Erlang-B by the standard stable recurrence, then the B->C conversion.
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered * blocking / (k + offered * blocking)
    return blocking / (1.0 - utilization * (1.0 - blocking))


def mmc_mean_wait(rate: float, servers: int, service_seconds: float) -> float:
    """Mean queueing delay (excluding service) in an M/M/c queue.

    ``Wq = C(c, rho) / (c/s - rate)``; returns ``inf`` when the queue is
    unstable (``rate >= c / service``).
    """
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    if service_seconds <= 0:
        raise ValueError(f"service must be positive, got {service_seconds}")
    if rate == 0:
        return 0.0
    capacity = servers / service_seconds
    if rate >= capacity:
        return math.inf
    return erlang_c(servers, rate / capacity) / (capacity - rate)


def mdc_mean_wait(rate: float, servers: int, service_seconds: float) -> float:
    """Mean queueing delay in an M/D/c queue (deterministic service).

    The Allen-Cunneen approximation with a squared coefficient of
    variation of zero: half the M/M/c wait.  Inference batches are
    near-deterministic (the latency curve is a function of batch size,
    not of luck), which is why the /2 matters -- pricing a cluster with
    the M/M/c wait would double-count variance the device doesn't have.
    """
    return 0.5 * mmc_mean_wait(rate, servers, service_seconds)


def fluid_backlog(
    rates: np.ndarray | list[float],
    capacity_rps: float,
    bin_seconds: float,
    initial: float = 0.0,
) -> np.ndarray:
    """End-of-bin backlogs under the fluid (flow-conservation) model.

    ``backlog[b] = max(0, backlog[b-1] + (rates[b] - capacity) * dt)`` --
    the deterministic limit of an overloaded queue, where stochastic
    detail is negligible next to the deficit between offered and served
    flow.  This is the overload regime of the hybrid backend: above the
    SLO knee the wait is backlog/capacity, not Erlang arithmetic.
    """
    if capacity_rps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_rps}")
    if bin_seconds <= 0:
        raise ValueError(f"bin_seconds must be positive, got {bin_seconds}")
    if initial < 0:
        raise ValueError(f"initial backlog must be non-negative, got {initial}")
    out = np.empty(len(rates))
    backlog = initial
    for b, rate in enumerate(rates):
        backlog = max(0.0, backlog + (float(rate) - capacity_rps) * bin_seconds)
        out[b] = backlog
    return out


@dataclass(frozen=True)
class BatchQueueStats:
    """Measured behaviour of one (arrival rate, batch size) operating point."""

    arrival_rate: float
    batch_size: int
    completed: int
    p99_seconds: float
    p50_seconds: float
    mean_seconds: float
    throughput_ips: float
    server_utilization: float


def simulate_batch_queue(
    arrival_rate: float,
    batch_size: int,
    occupancy_seconds: float,
    latency_seconds: float | None = None,
    n_requests: int = 20000,
    seed: int = 0,
    warmup_fraction: float = 0.1,
) -> BatchQueueStats:
    """Simulate a single batching server at a fixed offered load.

    ``occupancy_seconds`` is how long the server is busy per batch;
    ``latency_seconds`` (default: equal) is when responses come back
    relative to batch start.
    """
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if occupancy_seconds <= 0:
        raise ValueError("occupancy must be positive")
    latency = occupancy_seconds if latency_seconds is None else latency_seconds
    if latency < occupancy_seconds:
        raise ValueError("latency cannot be shorter than occupancy")

    curve = ConstantCurve(occupancy_seconds, latency)
    fleet = Fleet([Replica(curve, FixedBatcher(batch_size))])
    result = fleet.run(poisson_arrivals(arrival_rate, n_requests, seed=seed))
    stats = result.stats(warmup_fraction=warmup_fraction)
    return BatchQueueStats(
        arrival_rate=arrival_rate,
        batch_size=batch_size,
        completed=stats.completed,
        p99_seconds=stats.p99_seconds,
        p50_seconds=stats.p50_seconds,
        mean_seconds=stats.mean_seconds,
        throughput_ips=stats.throughput_rps,
        server_utilization=stats.utilization,
    )


def simulate_closed_loop(
    concurrency: int,
    batch_size: int,
    occupancy_seconds: float,
    latency_seconds: float | None = None,
    n_batches: int = 2000,
) -> BatchQueueStats:
    """A closed-loop load generator: ``concurrency`` requests in flight.

    Each completed request immediately re-enters the queue, which is how
    production load tests drive a serving stack to 100% utilization (the
    paper's Table 4 IPS figures equal batch capacity, the closed-loop
    signature).  With concurrency C >= batch B the server never starves;
    steady-state response approaches (C/B) * occupancy + (latency -
    occupancy) -- the pipeline-depth inflation behind the published
    p99/service ratios.
    """
    latency = occupancy_seconds if latency_seconds is None else latency_seconds
    curve = ConstantCurve(occupancy_seconds, latency)
    responses, server = run_closed_loop(
        concurrency, batch_size, curve, n_batches=n_batches
    )
    stats = summarize(
        responses,
        horizon=server.free_at,
        busy_time=server.busy_time,
        warmup_fraction=0.25,
        batches=server.batches,
    )
    return BatchQueueStats(
        arrival_rate=batch_size / occupancy_seconds,
        batch_size=batch_size,
        completed=stats.completed,
        p99_seconds=stats.p99_seconds,
        p50_seconds=stats.p50_seconds,
        mean_seconds=stats.mean_seconds,
        throughput_ips=batch_size / occupancy_seconds,
        server_utilization=1.0,
    )
