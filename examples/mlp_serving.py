#!/usr/bin/env python3
"""Latency-bounded serving: reproduce the Table 4 trade-off interactively.

Sweeps batch sizes on all three platforms for MLP0 under the 7 ms p99
limit, showing why CPUs and GPUs must serve small, inefficient batches
while the TPU's deterministic execution keeps large batches inside the
deadline.
"""

from repro.latency.sweep import table4_point
from repro.nn.workloads import mlp0
from repro.platforms.cpu import HaswellPlatform
from repro.platforms.gpu import K80Platform
from repro.platforms.tpu import TPUPlatform
from repro.util.tables import TextTable

SLA_MS = 7.0


def main() -> None:
    model = mlp0()
    platforms = [HaswellPlatform(), K80Platform(), TPUPlatform()]
    table = TextTable(
        ["Platform", "Batch", "Service (ms)", "p99 (ms)", "IPS", "Meets 7 ms?"],
        title="MLP0 serving points (closed-loop load at capacity)",
    )
    for platform in platforms:
        for batch in (16, 64, 200, 250):
            service = platform.service_seconds(model, batch)
            p99, ips = table4_point(platform, model, batch)
            table.add_row([
                platform.name,
                batch,
                service * 1e3,
                p99 * 1e3,
                f"{ips:,.0f}",
                "yes" if p99 <= SLA_MS / 1e3 else "NO",
            ])
    print(table.render())
    print(
        "\nThe paper's Table 4: CPUs/GPUs top out near batch 16 under the\n"
        "deadline (42%/37% of their best throughput), while the TPU serves\n"
        "batch 200 at ~80% of its maximum -- deterministic execution is a\n"
        "better match for 99th-percentile guarantees."
    )


if __name__ == "__main__":
    main()
