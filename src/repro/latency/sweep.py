"""Table 4: p99 response time and throughput for MLP0 as batch varies.

For each (platform, batch) pair a closed-loop load generator drives the
batching server to capacity, the way the paper measured: IPS is batch
over service time, and p99 reflects the serving pipeline's depth.  The
open-loop question -- the most a fleet sustains under the SLO -- is
``repro.run(ServeScenario(...)).metadata["best"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.latency.queueing import simulate_closed_loop
from repro.nn.graph import Model
from repro.platforms.base import Platform
from repro.serving.fleet import occupancy_latency

#: The MLP0 application developer's limit (Table 4).
MLP0_SLA_SECONDS = 7e-3

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


# Shared with the fleet simulator: (occupancy, latency) per batch.
_occupancy_latency = occupancy_latency


def table4_rows(
    mlp0: Model,
    platforms: dict[str, Platform],
    sla_seconds: float = MLP0_SLA_SECONDS,
) -> list[Table4Row]:
    """The six Table 4 rows (CPU/GPU at 16/64, TPU at 200/250).

    Matches the paper's measurement style: a closed-loop load generator
    drives each batch configuration to capacity, so IPS is batch/service
    and p99 reflects the serving pipeline's depth (the platform's
    calibrated p99 factor plays the concurrency-depth role).
    """
    rows = []
    for kind, batches in TABLE4_BATCHES.items():
        platform = platforms[kind]
        results = []
        for batch in batches:
            occupancy, latency = _occupancy_latency(platform, mlp0, batch)
            concurrency = max(int(round(platform.p99_factor * batch)), batch)
            stats = simulate_closed_loop(
                concurrency=concurrency,
                batch_size=batch,
                occupancy_seconds=occupancy,
                latency_seconds=latency,
            )
            results.append(
                (batch, stats.throughput_ips, stats.p99_seconds,
                 stats.p99_seconds <= sla_seconds)
            )
        best_ips = max(r[1] for r in results)
        for batch, ips, p99, met in results:
            rows.append(
                Table4Row(
                    platform=platform.name,
                    batch=batch,
                    p99_seconds=p99,
                    ips=ips,
                    pct_of_max=ips / best_ips,
                    met_sla=met,
                )
            )
    return rows
