"""The classic queueing models in closed form, for the globe's hybrid backend.

Erlang-C, M/M/c and M/D/c mean waits, and a fluid backlog recurrence.
The planet-scale hybrid backend (:mod:`repro.globe.backend`) calls these
to price clusters far from the SLO knee without paying event-loop time:
:func:`mdc_mean_wait` below the knee, :func:`fluid_backlog`'s step for
the backlog it carries above it, and the exact event engine
(:mod:`repro.serving.fleet`) only in between.  They have no second copy
there, so their property tests cover the code the backend runs.
"""

from __future__ import annotations

import math

import numpy as np


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
