"""Table 4: p99 response time and throughput vs batch size (MLP0)."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.latency.sweep import table4_rows
from repro.util.tables import TextTable

_KIND_OF = {"Haswell": "cpu", "K80": "gpu", "TPU": "tpu"}


def run() -> ExperimentResult:
    rows = table4_rows(workloads()["mlp0"], platforms())
    table = TextTable(
        ["Type", "Batch", "99th% response", "Inf/s (IPS)", "% Max IPS",
         "paper p99", "paper IPS"],
        title="Table 4 -- MLP0 throughput under the 7 ms limit",
    )
    measured = {}
    for row in rows:
        kind = _KIND_OF[row.platform]
        pub = _paper.TABLE4[(kind, row.batch)]
        table.add_row([
            row.platform,
            row.batch,
            f"{row.p99_seconds * 1e3:.1f} ms",
            f"{row.ips:,.0f}",
            f"{row.pct_of_max:.0%}",
            f"{pub['p99_ms']} ms",
            f"{pub['ips']:,}",
        ])
        measured[(kind, row.batch)] = {
            "p99_ms": row.p99_seconds * 1e3,
            "ips": row.ips,
            "pct_max": row.pct_of_max,
        }
    return ExperimentResult(
        exp_id="table4",
        text=table.render(),
        measured=measured,
        paper=_paper.TABLE4,
    )
