"""The Haswell E5-2699 v3 comparison platform (per die).

An analytical roofline model (peak 1.3 TFLOPS fp32, 51 GB/s, ridge ~13
MACs/weight-byte) with per-application attainment constants.

Calibration notes:

* ``mlp0`` anchors to Table 4's published absolutes: 5,482 IPS at batch
  16 (memory-bound, 0.60 of bandwidth) and 13,194 IPS at batch 64
  (compute-bound, 0.45 of fp32 peak) fall out of (0.45, 0.60) almost
  exactly, so those are the generic MLP constants.
* The paper's LSTM results imply a CPU unusually close to peak
  (Section 4 discusses why LSTMs favour the CPU); its per-app constants
  are higher.
* ``cnn0``'s published ratios imply CPU throughput *above* fp32 peak --
  this is the one DNN the paper mentions had an 8-bit AVX2
  implementation (~3.5x benefit, Section 8), encoded here as an
  efficiency > 1 relative to the fp32 roofline.
"""

from __future__ import annotations

from repro.platforms.base import AnalyticalPlatform
from repro.platforms.specs import HASWELL_CHIP, HASWELL_SERVER


class HaswellPlatform(AnalyticalPlatform):
    """18-core, dual-socket Haswell server die, as benchmarked in 2015."""

    name = "Haswell"
    kind = "cpu"
    chip = HASWELL_CHIP
    server = HASWELL_SERVER

    #: Fraction of the roofline attained per app (production stack).
    efficiency = {
        "mlp0": 0.55,
        "mlp1": 0.43,
        "lstm0": 0.98,
        "lstm1": 0.85,
        "cnn0": 1.30,  # the AVX2 8-bit exception (Section 8 fallacy)
        "cnn1": 0.37,
    }
    default_efficiency = 0.55
    #: Fixed per-batch software cost (framework dispatch, NUMA traffic).
    batch_overhead_s = 50e-6
    #: Per-example host-side cost (feature prep, serialization).
    per_example_host_s = 1.0e-6
    #: Table 4 calibration: p99 7.2 ms on a 2.9 ms service at batch 16.
    p99_factor = 2.3

    def achieved_ops(self, model, batch):  # type: ignore[override]
        """Memory-bound regions attain a slightly different fraction
        than compute-bound ones (0.60 vs 0.45 for the MLPs at Table 4's
        anchor points); scale the headline efficiency accordingly."""
        intensity = self.intensity(model, batch)
        roofline = self.attainable_ops(intensity)
        eff = self.app_efficiency(model)
        if roofline < self.chip.peak_ops:  # under the slanted part
            eff = eff * (0.60 / 0.55) if eff <= 1.0 else eff
        else:
            eff = eff * (0.45 / 0.55) if eff <= 1.0 else eff
        return eff * roofline
