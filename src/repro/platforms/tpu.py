"""The TPU platform: the simulator wrapped in the Platform interface.

Unlike the analytical CPU/GPU models, everything here is *derived*: the
compiler lowers the model, the device simulator executes it, and the
driver adds the host share.  Throughput treats the host and device as a
pipeline (max of the two), while response time sees their sum -- the
paper's Table 4 footnote that maximum TPU throughput is limited by host
overhead falls out of exactly this split.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.compiler.allocator import UBOverflowError
from repro.compiler.driver import CompiledModel, TPUDriver
from repro.core.config import TPUConfig, TPU_V1
from repro.nn.graph import Model
from repro.platforms.base import Platform
from repro.platforms.specs import ChipSpec, TPU_CHIP, TPU_SERVER

#: Host application share per example: input reformatting into TPU order
#: plus request bookkeeping.  ~1 us fixed plus a ~1.5 GB/s reformat rate
#: reproduces the published MLP0/MLP1 IPS levels (Table 4, Section 8).
HOST_PER_EXAMPLE_FIXED_S = 1.0e-6
HOST_REFORMAT_BYTES_PER_S = 1.5e9


class TPUPlatform(Platform):
    """A single TPU die plus its share of the host server."""

    name = "TPU"
    kind = "tpu"
    server = TPU_SERVER
    #: Table 4 calibration: p99 7.0 ms on a ~1.6 ms service at batch 200.
    p99_factor = 4.3

    def __init__(self, config: TPUConfig = TPU_V1) -> None:
        self.config = config
        self.driver = TPUDriver.shared(config)
        self.chip = self._chip_for(config)

    @staticmethod
    def _chip_for(config: TPUConfig) -> ChipSpec:
        return replace(
            TPU_CHIP,
            clock_mhz=config.clock_hz / 1e6,
            peak_tops_8b=config.peak_ops_per_s / 1e12,
            bandwidth_gbs=config.weight_bandwidth / 1e9,
        )

    # -- simulator access ---------------------------------------------------
    def _compile_variant(self, model: Model, batch: int) -> CompiledModel | None:
        """Compile at a batch size; None when the batch cannot be staged.

        A batch whose live tensors overflow the 24 MiB Unified Buffer is
        physically unservable on this device (the UB-sizing constraint of
        Section 7); callers see it as infinite service time so batching
        policies and provisioning searches step around it.

        The driver memoizes the compile: its timing entries match by
        value, so the ``replace(model, batch_size=...)`` copy of a curve
        probe reuses the program compiled for an equal copy, and a model
        that only shares the name gets its own.
        """
        variant = model if batch == model.batch_size else replace(model, batch_size=batch)
        try:
            return self.driver.compile(variant)
        except UBOverflowError:
            return None

    def device_seconds(self, model: Model, batch: int | None = None) -> float:
        """Simulated TPU time for one batch (no host share)."""
        batch = model.batch_size if batch is None else batch
        compiled = self._compile_variant(model, batch)
        return math.inf if compiled is None else self.driver.profile(compiled).seconds

    def host_seconds(self, model: Model, batch: int) -> float:
        """Host share per batch: interaction (Table 5) + app-side work."""
        compiled = self._compile_variant(model, batch)
        if compiled is None:
            return math.inf
        interaction = compiled.host_seconds_per_batch()
        per_example = (
            HOST_PER_EXAMPLE_FIXED_S
            + model.input_elements_per_example / HOST_REFORMAT_BYTES_PER_S
        )
        return interaction + per_example * batch

    # -- Platform interface ------------------------------------------------
    def service_seconds(self, model: Model, batch: int) -> float:
        """Response-time view: device and host in series."""
        return self.device_seconds(model, batch) + self.host_seconds(model, batch)

    def occupancy_seconds(self, model: Model, batch: int) -> float:
        """Throughput view: device and host pipelined (max, not sum)."""
        return max(
            self.device_seconds(model, batch), self.host_seconds(model, batch)
        )

    def throughput_ips(self, model: Model, batch: int) -> float:
        return batch * model.steps_per_example / self.occupancy_seconds(model, batch)

    def serving_point(self, model: Model, batch: int | None = None):
        """Serve at the application's Table 1 batch size by default."""
        point = super().serving_point(
            model, model.batch_size if batch is None else batch
        )
        # Throughput is pipeline-limited, not series-limited.
        ips = self.throughput_ips(model, point.batch)
        bottleneck = self.occupancy_seconds(model, point.batch)
        return replace(
            point,
            ips=ips,
            achieved_ops=2.0 * model.macs_per_example * point.batch / bottleneck,
        )
