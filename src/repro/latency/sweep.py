"""Table 4: p99 response time and throughput for MLP0 as batch varies.

For each (platform, batch) pair a closed-loop load generator drives the
batching server to capacity, the way the paper measured: IPS is batch
over service time, and p99 reflects the serving pipeline's depth.  The
open-loop question -- the most a fleet sustains under the SLO -- is
``repro.run(ServeScenario(...)).metadata["best"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.graph import Model
from repro.perfcache import occupancy_latency
from repro.platforms.base import Platform
from repro.serving.engine import ConstantCurve, run_closed_loop, summarize

#: The batch sizes the paper benchmarked per platform.
TABLE4_BATCHES = {"cpu": (16, 64), "gpu": (16, 64), "tpu": (200, 250)}


@dataclass(frozen=True)
class Table4Row:
    platform: str
    batch: int
    p99_seconds: float
    ips: float
    pct_of_max: float
    met_sla: bool


def table4_point(platform: Platform, model: Model, batch: int) -> tuple[float, float]:
    """(p99 seconds, IPS) of ``model`` served at ``batch`` on ``platform``.

    ``max(p99_factor * batch, batch)`` requests stay in flight -- the
    platform's calibrated p99 factor plays the concurrency-depth role --
    and each completed request re-enters the queue, so the server never
    starves and IPS is batch over occupancy.  p99 skips the first
    quarter of the responses, the ramp before the pipeline fills.
    """
    occupancy, latency = occupancy_latency(platform, model, batch)
    concurrency = max(int(round(platform.p99_factor * batch)), batch)
    responses, server = run_closed_loop(
        concurrency, batch, ConstantCurve(occupancy, latency)
    )
    stats = summarize(
        responses,
        horizon=server.free_at,
        busy_time=server.busy_time,
        warmup_fraction=0.25,
        batches=server.batches,
    )
    return stats.p99_seconds, batch / occupancy


def table4_rows(mlp0: Model, platforms: dict[str, Platform]) -> list[Table4Row]:
    """The six Table 4 rows (CPU/GPU at 16/64, TPU at 200/250), each a
    :func:`table4_point`, judged against MLP0's 7 ms limit."""
    rows = []
    for kind, batches in TABLE4_BATCHES.items():
        platform = platforms[kind]
        points = [(batch, *table4_point(platform, mlp0, batch)) for batch in batches]
        best_ips = max(ips for _, _, ips in points)
        for batch, p99, ips in points:
            rows.append(
                Table4Row(
                    platform=platform.name,
                    batch=batch,
                    p99_seconds=p99,
                    ips=ips,
                    pct_of_max=ips / best_ips,
                    met_sla=p99 <= platform.sla_for(mlp0),
                )
            )
    return rows
