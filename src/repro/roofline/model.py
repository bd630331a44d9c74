"""Roofline computation with the paper's conventions.

Y-axis: operations per second, counting one MAC as two ops.  X-axis:
operational intensity in *MACs per byte of weights read from memory*
(weights do not fit on chip, so the second change the paper makes to the
HPC roofline is to measure intensity against weight traffic).  The ridge
therefore sits at ``peak_ops / (2 * bandwidth)``: ~1350 for the TPU, ~13
for Haswell, ~9 for the K80.  :class:`RooflineView` is the one place the
ceiling and the ridge are written; platforms, chips and TPU configs read
theirs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import TPUConfig
    from repro.nn.graph import Model
    from repro.platforms.base import Platform
    from repro.platforms.specs import ChipSpec


@dataclass(frozen=True)
class RooflineView:
    """One platform's roofline: a peak and a slanted bandwidth bound."""

    name: str
    peak_ops: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_ops <= 0 or self.bandwidth <= 0:
            raise ValueError("peak and bandwidth must be positive")

    @property
    def ridge_ops_per_byte(self) -> float:
        return self.peak_ops / (2.0 * self.bandwidth)

    def attainable(self, intensity: float) -> float:
        if intensity <= 0:
            raise ValueError(f"intensity must be positive, got {intensity}")
        return min(self.peak_ops, 2.0 * intensity * self.bandwidth)

    def ceiling_points(
        self, lo: float = 1.0, hi: float = 10000.0, per_decade: int = 8
    ) -> list[tuple[float, float]]:
        """Sampled (intensity, attainable) pairs for plotting."""
        import math

        points = []
        steps = max(int(per_decade * math.log10(hi / lo)), 2)
        for i in range(steps + 1):
            x = lo * (hi / lo) ** (i / steps)
            points.append((x, self.attainable(x)))
        return points


@dataclass(frozen=True)
class AppPoint:
    """One application plotted on a roofline."""

    app: str
    intensity: float
    achieved_ops: float

    def headroom(self, view: RooflineView) -> float:
        """Gap to the ceiling directly above (the tuning opportunity)."""
        return view.attainable(self.intensity) / self.achieved_ops


def tpu_roofline(config: TPUConfig) -> RooflineView:
    return RooflineView(
        name="TPU", peak_ops=config.peak_ops_per_s, bandwidth=config.weight_bandwidth
    )


def chip_roofline(chip: ChipSpec) -> RooflineView:
    return RooflineView(name=chip.name, peak_ops=chip.peak_ops, bandwidth=chip.bandwidth)


def app_points(platform: Platform, models: dict[str, Model]) -> list[AppPoint]:
    """Each app at its latency-bounded serving point on this platform."""
    points = []
    for name, model in models.items():
        sp = platform.serving_point(model)
        points.append(
            AppPoint(app=name, intensity=sp.intensity, achieved_ops=sp.achieved_ops)
        )
    return points
