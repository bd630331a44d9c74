"""Table 3: factors limiting TPU performance (hardware counters)."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, profiled, workloads
from repro.util.tables import TextTable

_ROWS = (
    ("Array active", "active", lambda b: b.active_fraction),
    ("  Useful MACs (% peak)", "useful", lambda b: b.useful_mac_fraction),
    ("  Unused MACs", "unused", lambda b: b.unused_mac_fraction),
    ("Weight stall", "weight_stall", lambda b: b.weight_stall_fraction),
    ("Weight shift", "weight_shift", lambda b: b.weight_shift_fraction),
    ("Non-matrix", "non_matrix", lambda b: b.non_matrix_fraction),
    ("RAW stalls", "raw_stall", lambda b: b.raw_stall_fraction),
    ("Input data stalls", "input_stall", lambda b: b.input_stall_fraction),
)


def run() -> ExperimentResult:
    apps = list(workloads())
    results = {name: profiled(name) for name in apps}
    table = TextTable(
        ["Factor"] + [a.upper() for a in apps] + ["Mean"],
        title="Table 3 -- TPU cycle breakdown (simulator counters; paper value in parens)",
    )
    measured: dict[str, dict[str, float]] = {a: {} for a in apps}
    for label, key, getter in _ROWS:
        cells = [label]
        values = []
        for app in apps:
            value = getter(results[app].breakdown)
            values.append(value)
            measured[app][key] = value
            cells.append(f"{value:.1%} ({_paper.TABLE3[app][key]:.1%})")
        cells.append(f"{sum(values) / len(values):.0%}")
        table.add_row(cells)
    tops_cells = ["TeraOps/s (92 peak)"]
    for app in apps:
        tops = results[app].tera_ops
        measured[app]["tops"] = tops
        tops_cells.append(f"{tops:.1f} ({_paper.TABLE3[app]['tops']:.1f})")
    tops_cells.append(f"{sum(measured[a]['tops'] for a in apps) / len(apps):.1f}")
    table.add_row(tops_cells)
    return ExperimentResult(
        exp_id="table3",
        text=table.render(),
        measured=measured,
        paper=_paper.TABLE3,
    )
