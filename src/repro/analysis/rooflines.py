"""Shared roofline figure builder for Figures 5-8."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.roofline.model import app_points, chip_roofline
from repro.roofline.render import render_roofline


def roofline_result(exp_id: str, kind: str, title: str) -> ExperimentResult:
    platform = platforms()[kind]
    view = chip_roofline(platform.chip)
    points = app_points(platform, workloads())
    text = render_roofline([view], {platform.name: points}, title)
    measured = {
        "ridge": view.ridge_ops_per_byte,
        "points": {
            p.app: {"intensity": p.intensity, "tops": p.achieved_ops / 1e12}
            for p in points
        },
    }
    return ExperimentResult(
        exp_id=exp_id,
        text=text,
        measured=measured,
        paper={"ridge": _paper.RIDGE_POINTS[kind]},
    )
