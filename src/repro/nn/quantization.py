"""Symmetric linear quantization, the paper's Section 1 'quantization' step.

The TPU computes with 8-bit signed weights and activations accumulated into
32-bit integers.  We use symmetric per-tensor scales: ``real = scale * q``
with ``q`` clipped to the signed range of the chosen width.  The same
requantization helper is used by both the numpy reference executor and the
TPU device's activation unit, so the two functional paths agree bit-exactly
and the device tests can assert equality instead of tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Activation

SUPPORTED_BITS = (8, 16)


def _dtype_for(bits: int) -> np.dtype:
    if bits == 8:
        return np.dtype(np.int8)
    if bits == 16:
        return np.dtype(np.int16)
    raise ValueError(f"unsupported quantization width: {bits} (want one of {SUPPORTED_BITS})")


def quant_range(bits: int) -> tuple[int, int]:
    """Inclusive (min, max) of the signed integer range for ``bits``."""
    _dtype_for(bits)
    half = 1 << (bits - 1)
    return (-half, half - 1)


@dataclass(frozen=True)
class TensorScale:
    """A symmetric per-tensor scale: real value = scale * integer code."""

    scale: float
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        _dtype_for(self.bits)


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the scale needed to reconstruct real values."""

    data: np.ndarray
    scale: TensorScale

    @property
    def real(self) -> np.ndarray:
        return dequantize(self.data, self.scale)


def choose_scale(values: np.ndarray, bits: int = 8) -> TensorScale:
    """Pick the symmetric scale covering the tensor's max magnitude."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        peak = 1.0  # any scale represents the all-zero tensor exactly
    _, q_max = quant_range(bits)
    scale = peak / q_max
    if scale == 0.0:  # subnormal peak underflowed the division
        scale = float(np.finfo(np.float64).tiny)
    return TensorScale(scale=scale, bits=bits)


def quantize(values: np.ndarray, scale: TensorScale) -> np.ndarray:
    """Round-to-nearest-even quantization with saturation."""
    q_min, q_max = quant_range(scale.bits)
    codes = np.rint(np.asarray(values, dtype=np.float64) / scale.scale)
    return np.clip(codes, q_min, q_max).astype(_dtype_for(scale.bits))


def dequantize(codes: np.ndarray, scale: TensorScale) -> np.ndarray:
    return np.asarray(codes, dtype=np.float64) * scale.scale


def quantized_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integer matmul with 32-bit accumulation, as the MXU performs it.

    Inputs may be int8 or int16; the product of two int16 tensors is the
    quarter-rate case the paper describes, but the arithmetic contract is
    identical.
    """
    if x.dtype not in (np.int8, np.int16) or w.dtype not in (np.int8, np.int16):
        raise TypeError(f"quantized_matmul wants int8/int16, got {x.dtype} @ {w.dtype}")
    return np.matmul(x.astype(np.int32), w.astype(np.int32))


def apply_activation(values: np.ndarray, activation: Activation) -> np.ndarray:
    """The nonlinearities the Activate instruction offers."""
    if activation is Activation.NONE:
        return values
    if activation is Activation.RELU:
        return np.maximum(values, 0.0)
    if activation is Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-values))
    if activation is Activation.TANH:
        return np.tanh(values)
    raise ValueError(f"unknown activation: {activation}")


def requantize(
    acc: np.ndarray,
    input_scale: TensorScale,
    weight_scale: TensorScale,
    output_scale: TensorScale,
    activation: Activation,
) -> np.ndarray:
    """Accumulator (int32) -> next layer's int8/int16 activation codes.

    This is the contract shared by the reference executor and the TPU
    activation unit: dequantize the 32-bit accumulator with the product of
    the input scales, apply the nonlinearity, and requantize with the
    output scale.
    """
    if acc.dtype != np.int32:
        raise TypeError(f"accumulators must be int32, got {acc.dtype}")
    real = acc.astype(np.float64) * (input_scale.scale * weight_scale.scale)
    return quantize(apply_activation(real, activation), output_scale)
