"""Figure 11: TPU performance as parameters scale 0.25x - 4x."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, workloads
from repro.perfmodel.scaling import SCALE_FACTORS, scaling_sweep
from repro.util.tables import TextTable
from repro.util.textplot import AsciiPlot

_MARKERS = {"memory": "m", "clock+": "C", "clock": "c", "matrix+": "X", "matrix": "x"}


def run() -> ExperimentResult:
    points = scaling_sweep(workloads())
    by_knob: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        by_knob.setdefault(p.knob, []).append((p.factor, p.weighted_mean))
    plot = AsciiPlot(
        title="Figure 11 -- weighted-mean TPU performance vs parameter scale",
        x_label="scale factor",
        y_label="relative perf",
        width=64,
        height=20,
        log_x=True,
    )
    for knob, series in by_knob.items():
        plot.add_series(knob, series, marker=_MARKERS[knob], connect=True)
    table = TextTable(
        ["Knob"] + [f"x{f}" for f in SCALE_FACTORS],
        title="Weighted-mean relative performance",
    )
    for knob, series in by_knob.items():
        table.add_row([knob] + [f"{wm:.2f}" for _f, wm in series])
    measured = {
        "memory_4x": dict(by_knob["memory"])[4.0],
        "clock_4x": dict(by_knob["clock"])[4.0],
        "matrix_2x": dict(by_knob["matrix"])[2.0],
    }
    per_app_mem4 = next(
        p for p in points if p.knob == "memory" and p.factor == 4.0
    ).per_app_speedup
    per_app_clk4 = next(
        p for p in points if p.knob == "clock+" and p.factor == 4.0
    ).per_app_speedup
    notes = [
        "",
        f"  memory x4 -> WM {measured['memory_4x']:.2f} (paper ~3)",
        f"  clock  x4 -> WM {measured['clock_4x']:.2f} (paper ~1; CNNs ~2x "
        f"with accumulators scaled along: "
        f"cnn0 {per_app_clk4['cnn0']:.2f}, cnn1 {per_app_clk4['cnn1']:.2f})",
        f"  matrix x2 -> WM {measured['matrix_2x']:.2f} (paper: slight degradation)",
        f"  MLP/LSTM memory x4 speedups: "
        + ", ".join(f"{a} {per_app_mem4[a]:.2f}" for a in ("mlp0", "mlp1", "lstm0", "lstm1")),
    ]
    return ExperimentResult(
        exp_id="figure11",
        text=plot.render() + "\n" + table.render() + "\n".join(notes),
        measured=measured,
        paper=_paper.FIGURE11,
    )
