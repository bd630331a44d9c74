"""Figure 9: relative performance/Watt of servers."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.power.perfwatt import figure9_bars
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    bars = figure9_bars(workloads(), platforms())
    table = TextTable(
        ["Comparison", "Basis", "GM", "WM", "paper (GM-WM)"],
        title="Figure 9 -- relative performance/Watt (TDP), whole servers",
    )
    measured = {}
    for bar in bars:
        lo, hi = _paper.FIGURE9[(bar.comparison, bar.basis)]
        table.add_row([
            bar.comparison, bar.basis, bar.gm, bar.wm, f"{lo} - {hi}",
        ])
        measured[(bar.comparison, bar.basis)] = (bar.gm, bar.wm)
    return ExperimentResult(
        exp_id="figure9",
        text=table.render(),
        measured=measured,
        paper=_paper.FIGURE9,
    )
