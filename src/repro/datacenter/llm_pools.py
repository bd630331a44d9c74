"""Per-pool autoscaling for disaggregated LLM serving.

The disaggregated fleet in :mod:`repro.serving.continuous` splits chips
into a prefill pool and a decode pool with very different unit
economics: a prefill chip clears whole prompts in batched passes, a
decode chip holds tens of requests for their entire generation.  One
autoscaler cannot serve both, so each pool gets its own controller --
the same rate-tracking :class:`ReactivePolicy` the datacenter layer
already uses for request fleets (offered rate over a control window,
with queue-depth/utilization escape hatches), wrapped to speak the
duck-typed ``PoolController`` protocol the serving engine expects
(``interval_s`` / ``spinup_s`` / ``min_chips`` / ``desired()``).

The wrapper owns the pool-specific capacity math: a decode chip's
request rate follows from the ideal iteration throughput at full batch,
a prefill chip's from the batched prompt pass.  Keeping that here (and
not in ``serving/``) preserves the layering: ``datacenter`` builds on
``serving``, never the reverse.
"""

from __future__ import annotations

from repro.datacenter.autoscaler import FleetObservation, ReactivePolicy
from repro.serving.continuous import ContinuousConfig, full_decode_step


#: Seconds between a pool controller's decisions.
CONTROL_INTERVAL_S = 0.05
#: Seconds a chip takes to spin up.
SPINUP_S = 0.25
#: Chips a pool starts with and never drops below.
MIN_CHIPS = 1


class PoolAutoscaler:
    """One pool's controller: ReactivePolicy over chip-rate capacity."""

    interval_s = CONTROL_INTERVAL_S
    spinup_s = SPINUP_S
    min_chips = MIN_CHIPS

    def __init__(self, name: str, chip_rps: float) -> None:
        if chip_rps <= 0:
            raise ValueError(f"chip_rps must be positive, got {chip_rps}")
        self.name = name
        self.chip_rps = chip_rps
        # ReactivePolicy's default target and high-water utilization and
        # backlog per chip.
        self._policy = ReactivePolicy()

    def desired(
        self,
        now: float,
        *,
        queued: int,
        arrival_rate: float,
        active: int,
        spinning: int,
        utilization: float,
    ) -> int:
        return self._policy.desired_replicas(FleetObservation(
            now=now,
            active=active,
            spinning_up=spinning,
            queued=queued,
            arrival_rate=arrival_rate,
            utilization=utilization,
            replica_rps=self.chip_rps,
        ))


def decode_chip_rps(cfg: ContinuousConfig, prompt_mean: int, decode_mean: int) -> float:
    """One decode chip's sustainable *request* rate at full batch."""
    batch, step = full_decode_step(cfg, prompt_mean, decode_mean)
    return batch / step / max(1, decode_mean)


def prefill_chip_rps(cfg: ContinuousConfig, prompt_mean: int) -> float:
    """One prefill chip's prompt rate at its configured batch size."""
    step = cfg.timing.prefill_seconds([prompt_mean] * cfg.prefill_batch)
    return cfg.prefill_batch / step


def pool_controllers(
    cfg: ContinuousConfig, prompt_mean: int, decode_mean: int
) -> dict[str, PoolAutoscaler]:
    """Build the two controllers the disaggregated engine plugs in."""
    return {
        "prefill_controller": PoolAutoscaler("prefill", prefill_chip_rps(cfg, prompt_mean)),
        "decode_controller": PoolAutoscaler(
            "decode", decode_chip_rps(cfg, prompt_mean, decode_mean)
        ),
    }
