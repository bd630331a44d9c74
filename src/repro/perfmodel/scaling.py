"""Figure 11: performance sensitivity as parameters scale 0.25x - 4x.

Five knobs, exactly the paper's:

* ``memory``   -- Weight Memory bandwidth alone;
* ``clock+``   -- clock rate with accumulators scaled along;
* ``clock``    -- clock rate alone;
* ``matrix+``  -- matrix-unit dimension with accumulators scaled by the
  square of the rise (MACs grow in both dimensions);
* ``matrix``   -- matrix-unit dimension alone.

Each knob produces a weighted-mean (and geometric-mean) performance
relative to the baseline TPU across the six apps.  The expected shapes:
memory 4x -> ~3x, clock 4x -> ~1x overall (CNNs ~2x), matrix 2x ->
slight *degradation* from two-dimensional tile fragmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TPUConfig, TPU_V1
from repro.nn.graph import Model
from repro.nn.workloads import mix_means
from repro.perfmodel.model import tpu_seconds

#: The sweep's scale factors (the paper plots 0.25x to 4x).
SCALE_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)

#: knob name -> TPUConfig.scaled keyword arguments for a factor k.
SCALE_KNOBS = {
    "memory": lambda k: {"memory": k},
    "clock+": lambda k: {"clock": k, "accumulators": k},
    "clock": lambda k: {"clock": k},
    "matrix+": lambda k: {"matrix": k, "accumulators": k * k},
    "matrix": lambda k: {"matrix": k},
}


@dataclass(frozen=True)
class SweepPoint:
    knob: str
    factor: float
    per_app_speedup: dict[str, float]
    weighted_mean: float
    geometric_mean: float


def scaling_sweep(
    models: dict[str, Model],
    config: TPUConfig = TPU_V1,
    factors: tuple[float, ...] = SCALE_FACTORS,
    knobs: tuple[str, ...] = tuple(SCALE_KNOBS),
) -> list[SweepPoint]:
    """Evaluate every knob at every factor; speedups are vs ``config``."""
    baseline = {name: tpu_seconds(m, config) for name, m in models.items()}
    points = []
    for knob in knobs:
        make_kwargs = SCALE_KNOBS[knob]
        for factor in factors:
            scaled = config.scaled(**make_kwargs(factor))
            speedups = {
                name: baseline[name] / tpu_seconds(m, scaled)
                for name, m in models.items()
            }
            gm, wm = mix_means(speedups)
            points.append(
                SweepPoint(
                    knob=knob,
                    factor=factor,
                    per_app_speedup=speedups,
                    weighted_mean=wm,
                    geometric_mean=gm,
                )
            )
    return points
