"""Performance/Watt (Section 5, Figure 9).

The paper cannot publish TCO, so performance/Watt -- with TDP as the
provisioned-Watts denominator -- stands in for performance/TCO.  Two
bases: *total* charges the accelerator with its host server's power;
*incremental* subtracts the host first.  Comparisons are whole servers:
2 Haswell dies, 8 K80 dies, or 4 TPUs per server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.graph import Model
from repro.nn.workloads import mix_means
from repro.perfmodel.tpu_prime import tpu_prime_study
from repro.platforms.base import Platform, relative_ips
from repro.platforms.specs import SERVERS

#: Section 7: GDDR5 raises the TPU' server budget from 861 W to ~900 W.
TPU_PRIME_SERVER_TDP_W = 900.0


@dataclass(frozen=True)
class PerfWattBar:
    """One Figure 9 bar: a relative performance/Watt ratio."""

    comparison: str  # e.g. "TPU/CPU"
    basis: str  # "total" | "incremental"
    gm: float
    wm: float


def _server_perf(rel_perf_per_die: dict[str, float], kind: str) -> dict[str, float]:
    dies = SERVERS[kind].dies
    return {app: rel * dies for app, rel in rel_perf_per_die.items()}


def _per_watt(
    perf: dict[str, float], watts: float
) -> dict[str, float]:
    return {app: p / watts for app, p in perf.items()}


def figure9_bars(
    models: dict[str, Model],
    platforms: dict[str, Platform],
) -> list[PerfWattBar]:
    """All ten Figure 9 bars (GPU, TPU, TPU' vs CPU and vs GPU)."""
    rel = relative_ips(models, platforms)
    # TPU': scale the TPU's per-app relative performance by the
    # host-adjusted memory-variant speedups of the Section 7 study
    # (the paper's chosen TPU' "just has faster memory").
    study = tpu_prime_study(models)
    prime_speedups = study.per_app_host_adjusted["memory"]
    rel["tpu_prime"] = {
        name: rel["tpu"][name] * prime_speedups[name] for name in models
    }

    host_tdp = SERVERS["cpu"].tdp_w
    watts = {
        "cpu": {"total": host_tdp, "incremental": host_tdp},
        "gpu": {
            "total": SERVERS["gpu"].tdp_w,
            "incremental": SERVERS["gpu"].tdp_w - host_tdp,
        },
        "tpu": {
            "total": SERVERS["tpu"].tdp_w,
            "incremental": SERVERS["tpu"].tdp_w - host_tdp,
        },
        "tpu_prime": {
            "total": TPU_PRIME_SERVER_TDP_W,
            "incremental": TPU_PRIME_SERVER_TDP_W - host_tdp,
        },
    }
    dies = {"cpu": "cpu", "gpu": "gpu", "tpu": "tpu", "tpu_prime": "tpu"}

    bars = []
    for basis in ("total", "incremental"):
        per_watt = {
            kind: _per_watt(_server_perf(rel[kind], dies[kind]), watts[kind][basis])
            for kind in rel
        }
        for numer, denom, label in (
            ("gpu", "cpu", "GPU/CPU"),
            ("tpu", "cpu", "TPU/CPU"),
            ("tpu", "gpu", "TPU/GPU"),
            ("tpu_prime", "cpu", "TPU'/CPU"),
            ("tpu_prime", "gpu", "TPU'/GPU"),
        ):
            ratios = {
                app: per_watt[numer][app] / per_watt[denom][app] for app in models
            }
            gm, wm = mix_means(ratios)
            bars.append(PerfWattBar(comparison=label, basis=basis, gm=gm, wm=wm))
    return bars


@dataclass(frozen=True)
class ServerScaleStudy:
    """Section 6's closing observation: a Haswell server plus 4 TPUs."""

    cnn0_speedup: float
    extra_power_fraction: float


def server_scale_study(models: dict[str, Model], platforms: dict[str, Platform]) -> ServerScaleStudy:
    """CNN0: 2 CPUs alone vs 2 CPUs + 4 TPUs (<20% more power, ~80x)."""
    cpu, tpu = platforms["cpu"], platforms["tpu"]
    model = models["cnn0"]
    cpu_server_ips = cpu.serving_point(model).ips * SERVERS["cpu"].dies
    tpu_server_ips = tpu.serving_point(model).ips * SERVERS["tpu"].dies
    speedup = tpu_server_ips / cpu_server_ips
    # Power: the TPU server's busy draw over the CPU server's.
    extra = (SERVERS["tpu"].busy_w - SERVERS["cpu"].busy_w) / SERVERS["cpu"].busy_w
    # The TPU dies themselves add only 4 x 40 W on top of the host.
    extra_incremental = 4 * SERVERS["tpu"].chip.busy_w / SERVERS["cpu"].busy_w
    return ServerScaleStudy(
        cnn0_speedup=speedup,
        extra_power_fraction=min(extra if extra > 0 else extra_incremental, extra_incremental),
    )
