"""Energy proportionality (Section 6, Figure 10).

[Bar07]'s ideal server consumes power proportional to load; none of the
three chips achieves it.  We model each platform's utilization->power
curve as ``P(u) = idle + (busy - idle) * u^alpha`` with alpha calibrated
from the paper's published 10%-load ratios: running CNN0, the TPU burns
88% of its full-load power at 10% load, the K80 66%, Haswell 56% (and
94/78/47% for LSTM1).  The short TPU design schedule left out
energy-saving features, hence its dismal alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.platforms.specs import SERVERS


@dataclass(frozen=True)
class PowerCurve:
    """A utilization -> Watts curve for one die (or one server)."""

    name: str
    idle_w: float
    busy_w: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.busy_w < self.idle_w:
            raise ValueError("busy power below idle power")

    def watts(self, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        return self.idle_w + (self.busy_w - self.idle_w) * utilization**self.alpha

    def ratio_at(self, utilization: float) -> float:
        """P(u) / P(1), the proportionality metric the paper quotes."""
        return self.watts(utilization) / self.watts(1.0)


def calibrate_alpha(idle_w: float, busy_w: float, ratio_at_10pct: float) -> float:
    """Solve for alpha from the published P(0.1)/P(1.0) ratio."""
    if not idle_w < busy_w:
        raise ValueError("need idle < busy to calibrate")
    target = ratio_at_10pct * busy_w
    if not idle_w < target <= busy_w:
        raise ValueError(
            f"ratio {ratio_at_10pct} implies {target} W, outside ({idle_w}, {busy_w}]"
        )
    fraction = (target - idle_w) / (busy_w - idle_w)
    return math.log(fraction) / math.log(0.1)


#: Published 10%-load power ratios per (platform, app) -- Section 6.
RATIO_AT_10PCT = {
    ("cpu", "cnn0"): 0.56,
    ("gpu", "cnn0"): 0.66,
    ("tpu", "cnn0"): 0.88,
    ("cpu", "lstm1"): 0.47,
    ("gpu", "lstm1"): 0.78,
    ("tpu", "lstm1"): 0.94,
}

#: Host-server power when its accelerators run flat out (Section 6):
#: 52% of full server power hosting GPUs, 69% hosting TPUs (the TPU
#: host works harder because the TPU is so much faster).
HOST_FRACTION_AT_FULL = {"gpu": 0.52, "tpu": 0.69}


def _chip_powers(kind: str) -> tuple[float, float]:
    chip = SERVERS[kind].chip
    return chip.idle_w, chip.busy_w


def platform_curve(kind: str, app: str) -> PowerCurve:
    """The die-level power curve for a platform running an app."""
    idle, busy = _chip_powers(kind)
    ratio = RATIO_AT_10PCT.get((kind, app))
    if ratio is None:
        # Interpolate: default to the CNN0 (compute-bound) calibration.
        ratio = RATIO_AT_10PCT[(kind, "cnn0")]
    return PowerCurve(
        name=f"{kind}/{app}", idle_w=idle, busy_w=busy, alpha=calibrate_alpha(idle, busy, ratio)
    )


PLATFORM_CURVES = {
    key: platform_curve(kind, app) for key in RATIO_AT_10PCT for kind, app in [key]
}


def host_share_watts(kind: str, utilization: float, app: str = "cnn0") -> float:
    """Host-server Watts attributable while an accelerator runs at ``u``.

    The host tracks the accelerator's load up to its measured full-load
    fraction (52% GPU / 69% TPU of the Haswell server's busy power).
    """
    server = SERVERS["cpu"]
    target = HOST_FRACTION_AT_FULL[kind] * server.busy_w
    curve = PowerCurve(
        name=f"host-of-{kind}",
        idle_w=server.idle_w,
        busy_w=target,
        alpha=platform_curve("cpu", app).alpha,
    )
    return curve.watts(utilization)


class ReplicaPower:
    """Utilization -> Watts for one replica slot, host share included.

    Follows Figure 10's accounting: a Haswell "replica" is one of the
    server's 2 dies, so it draws half the server curve; a K80 or TPU
    replica draws its die curve plus its share of the host server that
    carries 8 GPUs or 4 TPUs (:func:`host_share_watts`).  Set
    ``include_host=False`` for the incremental (die-only) view.
    """

    def __init__(self, kind: str, app: str = "cnn0", include_host: bool = True) -> None:
        if kind not in SERVERS:
            raise ValueError(f"unknown platform kind {kind!r}; try {sorted(SERVERS)}")
        self.kind = kind
        self.app = app
        self.include_host = include_host
        self.dies = SERVERS[kind].dies
        if kind == "cpu":
            server = SERVERS["cpu"]
            self._die = PowerCurve(
                name="cpu-server",
                idle_w=server.idle_w,
                busy_w=server.busy_w,
                alpha=platform_curve("cpu", app).alpha,
            )
        else:
            self._die = platform_curve(kind, app)

    def watts(self, utilization: float) -> float:
        if self.kind == "cpu":
            return self._die.watts(utilization) / self.dies
        die = self._die.watts(utilization)
        if not self.include_host:
            return die
        return die + host_share_watts(self.kind, utilization, self.app) / self.dies

    @property
    def peak_w(self) -> float:
        return self.watts(1.0)

    @property
    def idle_w(self) -> float:
        return self.watts(0.0)


def figure10_series(
    app: str = "cnn0", utilizations: tuple[float, ...] = tuple(i / 10 for i in range(11))
) -> dict[str, list[tuple[float, float]]]:
    """Watts/die vs load for the five Figure 10 series, each a
    :class:`ReplicaPower`.

    ``Haswell`` is total power by definition; ``K80`` and ``TPU`` are
    incremental (die only); the ``+host`` variants add the host server's
    share divided by the dies it hosts (8 GPUs or 4 TPUs per server).
    """
    haswell = ReplicaPower("cpu", app)
    series = {"Haswell (total, /2 dies)": [(u, haswell.watts(u)) for u in utilizations]}
    for kind, label in (("gpu", "K80"), ("tpu", "TPU")):
        die = ReplicaPower(kind, app, include_host=False)
        hosted = ReplicaPower(kind, app)
        series[f"{label} (incremental)"] = [(u, die.watts(u)) for u in utilizations]
        series[f"{label}+host/{hosted.dies}"] = [(u, hosted.watts(u)) for u in utilizations]
    return series
