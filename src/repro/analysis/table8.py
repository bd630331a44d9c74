"""Table 8: Unified Buffer usage per application.

The improved (liveness) allocator's footprint per app, next to the
deployed static-partition allocator's behaviour of reserving the whole
24 MiB -- the paper's "first 18 months at full capacity" story.
"""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, compiled, workloads
from repro.compiler.allocator import StaticPartitionAllocator
from repro.compiler.driver import TPUDriver
from repro.util.tables import TextTable
from repro.util.units import MIB


def run() -> ExperimentResult:
    static_driver = TPUDriver(allocator=StaticPartitionAllocator())
    table = TextTable(
        ["App", "Improved allocator (MiB)", "paper (MiB)", "Deployed allocator (MiB)"],
        title="Table 8 -- maximum Unified Buffer usage (24 MiB available)",
    )
    measured = {}
    max_improved = 0.0
    for name, model in workloads().items():
        improved = compiled(name).ub_peak_bytes / MIB
        deployed = static_driver.compile(model).ub_peak_bytes / MIB
        measured[name] = improved
        max_improved = max(max_improved, improved)
        table.add_row([name.upper(), improved, _paper.TABLE8[name], deployed])
    note = (
        f"\nLargest improved-allocator footprint: {max_improved:.1f} MiB "
        f"(paper: 14 MiB would suffice; the deployed allocator pinned the "
        f"full 24 MiB)."
    )
    measured["max"] = max_improved
    return ExperimentResult(
        exp_id="table8",
        text=table.render() + note,
        measured=measured,
        paper=_paper.TABLE8,
    )
