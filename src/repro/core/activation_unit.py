"""The Activation Unit: nonlinearities and pooling between Acc and UB.

Reads 32-bit accumulator rows, applies the programmed nonlinearity, and
writes 8-bit codes back to the Unified Buffer.  The hardware used lookup
tables for sigmoid/tanh; this model offers both the exact closed forms
(default, so the device matches the numpy reference bit-for-bit) and a
LUT mode that quantizes the function input to a configurable number of
entries, for studying the approximation the silicon actually made.  The
unit moves data only; the device's timing walk charges each pass its
``ceil(elements / activation_lanes)`` cycles.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Activation
from repro.nn.quantization import (
    TensorScale,
    apply_activation,
    quantize,
    requantize,
)


class ActivationUnit:
    """Requantizing activation pipeline with optional LUT approximation."""

    def __init__(self, mode: str = "exact", lut_bits: int = 12) -> None:
        if mode not in ("exact", "lut"):
            raise ValueError(f"mode must be 'exact' or 'lut', got {mode!r}")
        if not 4 <= lut_bits <= 16:
            raise ValueError(f"lut_bits must be in [4, 16], got {lut_bits}")
        self.mode = mode
        self.lut_bits = lut_bits

    def activate(
        self,
        acc: np.ndarray,
        input_scale: TensorScale,
        weight_scale: TensorScale,
        output_scale: TensorScale,
        function: Activation,
    ) -> np.ndarray:
        """Accumulators -> int8 activation codes (shared requantize path)."""
        if self.mode == "exact" or function in (Activation.NONE, Activation.RELU):
            return requantize(acc, input_scale, weight_scale, output_scale, function)
        return self._activate_lut(acc, input_scale, weight_scale, output_scale, function)

    def _activate_lut(
        self,
        acc: np.ndarray,
        input_scale: TensorScale,
        weight_scale: TensorScale,
        output_scale: TensorScale,
        function: Activation,
    ) -> np.ndarray:
        """Piecewise-constant LUT over the saturating input range.

        Sigmoid/tanh saturate outside about +-8, so the table spans that
        interval; inputs beyond it clamp to the end entries, exactly as a
        hardware table would.
        """
        real = acc.astype(np.float64) * (input_scale.scale * weight_scale.scale)
        entries = 1 << self.lut_bits
        span = 8.0
        centers = np.linspace(-span, span, entries)
        table = apply_activation(centers, function)
        index = np.clip(
            np.rint((real + span) / (2 * span) * (entries - 1)), 0, entries - 1
        ).astype(np.int64)
        return quantize(table[index], output_scale)
