"""Table 6: K80 and TPU performance relative to the CPU, per die."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.nn.workloads import mix_means
from repro.platforms.base import relative_ips
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    rel = relative_ips(workloads(), platforms())
    apps = list(workloads())
    table = TextTable(
        ["Type"] + [a.upper() for a in apps] + ["GM", "WM"],
        title="Table 6 -- relative per-die performance (CPU = 1); paper in parens",
    )
    means = {}
    for kind, paper_row in (("gpu", _paper.TABLE6_GPU), ("tpu", _paper.TABLE6_TPU)):
        gm, wm = mix_means(rel[kind])
        means[f"{kind}_gm"], means[f"{kind}_wm"] = gm, wm
        table.add_row(
            [kind.upper()]
            + [f"{rel[kind][a]:.1f} ({paper_row[a]})" for a in apps]
            + [f"{gm:.1f} ({_paper.TABLE6_MEANS[kind + '_gm']})",
               f"{wm:.1f} ({_paper.TABLE6_MEANS[kind + '_wm']})"]
        )
    ratio = {a: rel["tpu"][a] / rel["gpu"][a] for a in apps}
    means["ratio_gm"], means["ratio_wm"] = mix_means(ratio)
    table.add_row(
        ["TPU/GPU"]
        + [f"{ratio[a]:.1f}" for a in apps]
        + [f"{means['ratio_gm']:.1f} ({_paper.TABLE6_MEANS['ratio_gm']})",
           f"{means['ratio_wm']:.1f} ({_paper.TABLE6_MEANS['ratio_wm']})"]
    )
    return ExperimentResult(
        exp_id="table6",
        text=table.render(),
        measured={"gpu": rel["gpu"], "tpu": rel["tpu"], "means": means},
        paper={"gpu": _paper.TABLE6_GPU, "tpu": _paper.TABLE6_TPU,
               "means": _paper.TABLE6_MEANS},
    )
