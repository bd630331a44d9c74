"""The TPU' study (Section 7): what 15 more months would have bought.

Three hypotheticals on the 28 nm process:

* ``clock``  -- more aggressive synthesis: 700 -> 1050 MHz;
* ``memory`` -- a GDDR5 interface like the K80's: >5x Weight Memory
  bandwidth (34 -> ~180 GB/s), moving the ridge from ~1350 to ~250;
* ``both``.

The paper found memory alone lifts the geometric mean 2.6x and the
weighted mean 3.9x while the clock adds nothing (the MLPs and LSTMs are
memory-bound), so TPU' "just has faster memory".  Folding in the host
interaction time (Table 5) drops the means to 1.9x and 3.2x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.driver import TPUDriver
from repro.core.config import TPUConfig, TPU_V1
from repro.nn.graph import Model
from repro.nn.workloads import mix_means
from repro.perfmodel.model import tpu_seconds

#: TPU' clock with more aggressive logic synthesis (Section 7).
PRIME_CLOCK_FACTOR = 1.5
#: GDDR5 Weight Memory bandwidth uplift (34 -> ~180 GB/s).
PRIME_MEMORY_FACTOR = 180.0 / 34.0


@dataclass(frozen=True)
class TPUPrimeStudy:
    """Per-variant speedups over the baseline TPU."""

    per_app: dict[str, dict[str, float]]  # variant -> app -> speedup
    per_app_host_adjusted: dict[str, dict[str, float]]
    geometric_means: dict[str, float]
    weighted_means: dict[str, float]
    host_adjusted_gm: dict[str, float]
    host_adjusted_wm: dict[str, float]


def tpu_prime_study(
    models: dict[str, Model], config: TPUConfig = TPU_V1
) -> TPUPrimeStudy:
    """Evaluate clock-only, memory-only (TPU'), and both."""
    variants = {
        "clock": config.scaled(clock=PRIME_CLOCK_FACTOR, accumulators=PRIME_CLOCK_FACTOR),
        "memory": config.scaled(memory=PRIME_MEMORY_FACTOR),
        "both": config.scaled(
            clock=PRIME_CLOCK_FACTOR,
            accumulators=PRIME_CLOCK_FACTOR,
            memory=PRIME_MEMORY_FACTOR,
        ),
    }
    baseline = {n: tpu_seconds(m, config) for n, m in models.items()}
    driver = TPUDriver.shared(config)
    host = {
        n: driver.compile(m).host_seconds_per_batch() for n, m in models.items()
    }
    per_app: dict[str, dict[str, float]] = {}
    per_app_host: dict[str, dict[str, float]] = {}
    gms: dict[str, float] = {}
    wms: dict[str, float] = {}
    host_gm: dict[str, float] = {}
    host_wm: dict[str, float] = {}
    for variant, cfg in variants.items():
        speedups = {n: baseline[n] / tpu_seconds(m, cfg) for n, m in models.items()}
        per_app[variant] = speedups
        gms[variant], wms[variant] = mix_means(speedups)
        with_host = {
            n: (baseline[n] + host[n]) / (tpu_seconds(m, cfg) + host[n])
            for n, m in models.items()
        }
        per_app_host[variant] = with_host
        host_gm[variant], host_wm[variant] = mix_means(with_host)
    return TPUPrimeStudy(
        per_app=per_app,
        per_app_host_adjusted=per_app_host,
        geometric_means=gms,
        weighted_means=wms,
        host_adjusted_gm=host_gm,
        host_adjusted_wm=host_wm,
    )
