"""Table 5: host interaction time as a percentage of TPU time."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, compiled, platforms, profiled, workloads
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    table = TextTable(
        ["App", "Host interaction / TPU time", "paper"],
        title="Table 5 -- time the CPU and TPU spend communicating",
    )
    measured = {}
    driver = platforms()["tpu"].driver
    for name in workloads():
        fraction = driver.host_fraction(compiled(name), profiled(name))
        measured[name] = fraction
        table.add_row([name.upper(), f"{fraction:.0%}", f"{_paper.TABLE5[name]:.0%}"])
    return ExperimentResult(
        exp_id="table5",
        text=table.render(),
        measured=measured,
        paper=_paper.TABLE5,
    )
