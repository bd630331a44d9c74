"""Figure 8: the three rooflines on one log-log chart.

Every TPU star should sit at or above the CPU and GPU rooflines -- the
visual version of the paper's headline result.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.roofline.model import app_points, chip_roofline
from repro.roofline.render import render_roofline


def run() -> ExperimentResult:
    plats = platforms()
    views = [chip_roofline(p.chip) for p in plats.values()]
    point_sets = {p.name: app_points(p, workloads()) for p in plats.values()}
    text = render_roofline(views, point_sets, "Figure 8 -- combined rooflines")
    tpu_points = point_sets["TPU"]
    others = [chip_roofline(plats["cpu"].chip), chip_roofline(plats["gpu"].chip)]
    stars_above = all(
        p.achieved_ops >= max(v.attainable(p.intensity) for v in others) * 0.8
        for p in tpu_points
    )
    measured = {
        "tpu_stars_at_or_above_other_rooflines": stars_above,
        "tpu_points": {
            p.app: {"intensity": p.intensity, "tops": p.achieved_ops / 1e12}
            for p in tpu_points
        },
    }
    return ExperimentResult(
        exp_id="figure8",
        text=text,
        measured=measured,
        paper={"claim": "All TPU stars are at or above the other 2 rooflines"},
    )
