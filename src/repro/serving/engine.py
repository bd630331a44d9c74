"""The pieces shared by every batch-serving simulation.

One server abstraction (:class:`BatchServer`), the latency curves it
runs on, one statistics summarizer and the closed-loop load generator
(:func:`run_closed_loop`).  The open-loop fleet simulator
(:mod:`repro.serving.fleet`, which owns its event heap) and Table 4's
closed-loop points (:func:`repro.latency.sweep.table4_point`) are both
built on these pieces, so there is exactly one implementation of "a
batch occupies the server for ``occupancy(n)`` seconds and its
responses complete after ``latency(n)`` seconds".

Occupancy and latency differ on the TPU, where host work pipelines with
device work (occupancy = max of the two, latency = their sum); the split
is what lets TPU throughput exceed 1/service_seconds in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs


def reject_first(name: str, values: np.ndarray, bad: np.ndarray, want: str) -> None:
    """Raise a ``ValueError`` naming ``name`` and its first ``bad`` index."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name}[{i}] must be {want}, got {values[i].item()!r}")


class LatencyCurve:
    """Batch size -> (occupancy, latency) seconds; subclass or use the
    ready-made :class:`ConstantCurve` / ``PlatformCurve`` (fleet module)."""

    def occupancy(self, batch: int) -> float:
        raise NotImplementedError

    def latency(self, batch: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantCurve(LatencyCurve):
    """Batch-size-independent timing: one (occupancy, latency) pair, as
    Table 4 measures at one batch size."""

    occupancy_seconds: float
    latency_seconds: float | None = None

    def occupancy(self, batch: int) -> float:
        return self.occupancy_seconds

    def latency(self, batch: int) -> float:
        if self.latency_seconds is None:
            return self.occupancy_seconds
        return self.latency_seconds


class BatchServer:
    """One replica's execution resource.

    Tracks when the server frees up, accumulated busy time, per-batch
    accounting (batch count, served requests) for fairness checks, and
    the busy *intervals* themselves -- the utilization timeline that the
    energy accounting in :mod:`repro.datacenter.energy` integrates
    through a power curve (the paper's Figure 10 question: Watts at the
    load a fleet actually sees, not at peak).
    """

    def __init__(self, curve: LatencyCurve) -> None:
        self.curve = curve
        self.free_at = 0.0
        self.busy_time = 0.0
        self.batches = 0
        self.served = 0
        self.busy_intervals: list[tuple[float, float]] = []
        #: Simulated-time trace track (assigned by FleetSim per replica).
        self.trace_tid = 0

    def idle_at(self, now: float) -> bool:
        return self.free_at <= now

    def start_batch(self, now: float, batch: int) -> float:
        """Start serving ``batch`` requests; returns the completion time.

        The caller must ensure the server is idle (``idle_at(now)``).
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if not self.idle_at(now):
            raise RuntimeError(
                f"batch started at {now} while server busy until {self.free_at}"
            )
        occupancy = self.curve.occupancy(batch)
        self.free_at = now + occupancy
        self.busy_time += occupancy
        self.batches += 1
        self.served += batch
        self.busy_intervals.append((now, self.free_at))
        if obs.TRACER.enabled:
            obs.TRACER.sim_span(
                "batch", now, occupancy, cat="serving",
                tid=self.trace_tid, batch=batch,
            )
        return now + self.curve.latency(batch)


@dataclass(frozen=True)
class ServingStats:
    """Distribution summary of a simulation's response times."""

    completed: int
    p99_seconds: float
    p50_seconds: float
    mean_seconds: float
    throughput_rps: float
    utilization: float
    slo_miss_fraction: float
    mean_batch: float


def summarize(
    responses: np.ndarray,
    horizon: float,
    busy_time: float,
    n_servers: int = 1,
    warmup_fraction: float = 0.1,
    slo_seconds: float | None = None,
    batches: int = 0,
) -> ServingStats:
    """Shared metric computation (arrays stay native -- no ``.tolist()``).

    ``responses`` are per-request response times in request order; the
    leading ``warmup_fraction`` is discarded before percentiles.
    """
    responses = np.asarray(responses, dtype=float)
    if responses.size == 0:
        raise ValueError("summarize requires at least one completed request")
    skip = int(responses.size * warmup_fraction)
    window = responses[skip:] if skip < responses.size else responses
    misses = (
        float(np.mean(window > slo_seconds)) if slo_seconds is not None else 0.0
    )
    return ServingStats(
        completed=int(responses.size),
        p99_seconds=float(np.percentile(window, 99.0)),
        p50_seconds=float(np.percentile(window, 50.0)),
        mean_seconds=float(np.mean(window)),
        throughput_rps=responses.size / horizon if horizon > 0 else 0.0,
        utilization=min(busy_time / (n_servers * horizon), 1.0) if horizon > 0 else 0.0,
        slo_miss_fraction=misses,
        mean_batch=responses.size / batches if batches else float(responses.size),
    )


def run_closed_loop(
    concurrency: int,
    batch_size: int,
    curve: LatencyCurve,
    n_batches: int = 2000,
) -> tuple[np.ndarray, BatchServer]:
    """Closed-loop load generation: ``concurrency`` requests in flight.

    Each completed request immediately re-enters the FIFO, so the server
    never starves -- the production load-test mode behind Table 4's
    100%-max-IPS rows.  Steady-state response approaches
    ``(concurrency / batch) * occupancy + (latency - occupancy)``, the
    pipeline-depth inflation behind the published p99/service ratios.

    Each batch's completions are written over the slot array at once;
    IEEE float64 subtraction is elementwise, so this matches a
    per-request loop bit for bit.
    """
    if concurrency < batch_size:
        raise ValueError(
            f"concurrency {concurrency} cannot fill batches of {batch_size}"
        )
    server = BatchServer(curve)
    head = 0
    responses = np.empty(n_batches * batch_size)
    out = 0
    enqueue = np.zeros(concurrency)
    offsets = np.arange(batch_size)
    for _ in range(n_batches):
        start = server.free_at
        done = server.start_batch(start, batch_size)
        slots = (head + offsets) % concurrency
        responses[out : out + batch_size] = done - enqueue[slots]
        enqueue[slots] = done  # the requests re-enter the pool
        out += batch_size
        head = (head + batch_size) % concurrency
    return responses, server
