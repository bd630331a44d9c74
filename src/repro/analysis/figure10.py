"""Figure 10: Watts/die vs utilization (energy proportionality)."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult
from repro.power.proportionality import figure10_series, platform_curve
from repro.util.textplot import AsciiPlot

_MARKERS = {"Haswell (total, /2 dies)": "o", "K80 (incremental)": "g",
            "K80+host/8": "G", "TPU (incremental)": "t", "TPU+host/4": "T"}


def run() -> ExperimentResult:
    series = figure10_series("cnn0")
    plot = AsciiPlot(
        title="Figure 10 -- Watts/die vs workload (CNN0)",
        x_label="utilization",
        y_label="W/die",
        width=72,
        height=22,
    )
    for name, points in series.items():
        plot.add_series(name, points, marker=_MARKERS.get(name, "*"), connect=True)
    measured = {}
    lines = [plot.render(), ""]
    for (kind, app), paper_ratio in _paper.FIGURE10.items():
        ratio = platform_curve(kind, app).ratio_at(0.1)
        measured[(kind, app)] = ratio
        lines.append(
            f"  {kind}/{app}: power at 10% load = {ratio:.0%} of full "
            f"(paper {paper_ratio:.0%})"
        )
    tpu_total = dict(series["TPU+host/4"])[1.0]
    measured["tpu_total_watts_per_die"] = tpu_total
    lines.append(
        f"  TPU total W/die at 100%: {tpu_total:.0f} "
        f"(paper ~{_paper.FIGURE10_FULL_LOAD_WATTS_PER_DIE['tpu_total']:.0f})"
    )
    return ExperimentResult(
        exp_id="figure10",
        text="\n".join(lines),
        measured=measured,
        paper=_paper.FIGURE10,
    )
