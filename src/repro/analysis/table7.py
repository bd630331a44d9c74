"""Table 7: analytical model vs (simulated) hardware counters."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, workloads
from repro.perfmodel.validation import validate_against_simulator
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    rows = validate_against_simulator(workloads())
    table = TextTable(
        ["App", "Simulator cycles", "Model cycles", "Difference", "paper"],
        title="Table 7 -- performance model vs simulator cycle counts",
    )
    measured = {}
    for name, row in rows.items():
        measured[name] = row.difference
        table.add_row([
            name.upper(),
            f"{row.simulator_cycles:,.0f}",
            f"{row.model_cycles:,.0f}",
            f"{row.difference:.1%}",
            f"{_paper.TABLE7[name]:.1%}",
        ])
    average = sum(measured.values()) / len(measured)
    measured["average"] = average
    table.add_row(["Average", "", "", f"{average:.1%}", f"{_paper.TABLE7['average']:.0%}"])
    return ExperimentResult(
        exp_id="table7",
        text=table.render(),
        measured=measured,
        paper=_paper.TABLE7,
    )
