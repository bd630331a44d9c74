"""Figure 2: the TPU die floorplan's area shares."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult
from repro.power.floorplan import category_shares, die_table


def run() -> ExperimentResult:
    shares = category_shares()
    lines = [die_table().render(), ""]
    for category, paper_share in _paper.FIGURE2.items():
        lines.append(
            f"  {category:8}: {shares.get(category, 0.0):.0%} "
            f"(paper {paper_share:.0%})"
        )
    return ExperimentResult(
        exp_id="figure2",
        text="\n".join(lines),
        measured=shares,
        paper=_paper.FIGURE2,
    )
