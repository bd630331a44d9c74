"""Layer algebra for the six benchmark networks and the transformer
extension family (multi-head attention, layer norm, per-token FC).

Each layer type knows three things:

1. its *functional* signature (input/output shapes) so the reference
   executor and the TPU functional path can run it;
2. its *cost* signature (weights, MACs, vector elements, weight-DRAM
   traffic) so the compiler, performance model, and roofline agree on
   operational intensity (MACs per byte of weights read, the paper's
   Table 1 convention);
3. its *matrix view* -- the (K, N) weight matrix and the number of
   input rows per example -- which is what the compiler tiles onto the
   256x256 Matrix Multiply Unit.

Shapes follow channels-last (B, H, W, C) for images and (B, T, F) for
sequences.  Weights are biasless: the paper's analysis depends only on the
weight matrix traffic, and omitting biases keeps the quantized functional
path bit-exact and simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union


class LayerKind(str, Enum):
    """Table 1 layer taxonomy (LSTM cells count as FC there), extended
    with the transformer kinds (attention, normalization) that postdate
    the paper's 2016 workload census."""

    FC = "fc"
    CONV = "conv"
    LSTM = "lstm"
    VECTOR = "vector"
    POOL = "pool"
    ATTENTION = "attention"
    NORM = "norm"


class Activation(str, Enum):
    """Nonlinearities supported by the TPU Activate instruction."""

    NONE = "none"
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"


def _require_positive(**fields: int) -> None:
    for name, value in fields.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


#: Vector-pipeline passes of a fused row-wise softmax (row max,
#: exp-subtract, row sum, divide).  Canonical count: the ISA's
#: ``VectorKind.PASSES`` table (device timing) and the analytic layer
#: costs below both read this.
SOFTMAX_PASSES = 4


@dataclass(frozen=True)
class FullyConnected:
    """A dense layer: ``y = act(x @ W)`` with W of shape (in, out).

    ``steps > 1`` marks a projection that sits inside a recurrent loop
    (LSTM1's 600x600 matrices): it is applied once per time step, and --
    because the TPU streams a model's weights layer-by-layer every step --
    its weights are re-read from Weight Memory ``steps`` times per batch.
    A multi-axis input is flattened implicitly when its element count,
    but not its last axis, equals ``in_features`` (conv -> FC
    transitions); a ``(1, in_features)`` token row stays a row.

    ``tokens > 1`` marks a *per-token* projection (a transformer FFN or
    output head): the same weight matrix is applied independently to each
    of ``tokens`` sequence positions, so an example contributes ``tokens``
    matmul rows while the weights are still read only once per batch --
    the amortization that makes transformer prefill compute-bound.
    ``steps`` and ``tokens`` are mutually exclusive: the first re-reads
    weights per application, the second shares them.
    """

    name: str
    in_features: int
    out_features: int
    activation: Activation = Activation.RELU
    steps: int = 1
    tokens: int = 1

    def __post_init__(self) -> None:
        _require_positive(
            in_features=self.in_features,
            out_features=self.out_features,
            steps=self.steps,
            tokens=self.tokens,
        )
        if self.steps > 1 and self.tokens > 1:
            raise ValueError(
                f"{self.name}: steps and tokens cannot both exceed 1 "
                "(recurrent weight re-reads vs shared per-token weights)"
            )

    @property
    def kind(self) -> LayerKind:
        return LayerKind.FC

    @property
    def weight_count(self) -> int:
        return self.in_features * self.out_features

    @property
    def matmul_shape(self) -> tuple[int, int]:
        """(K, N) of the weight matrix the MXU multiplies by."""
        return (self.in_features, self.out_features)

    @property
    def rows_per_example(self) -> int:
        return self.tokens

    @property
    def macs_per_example(self) -> int:
        return self.steps * self.tokens * self.in_features * self.out_features

    @property
    def vector_elements_per_example(self) -> int:
        """Element-wise work beyond the fused post-matmul activation."""
        return 0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.steps > 1:
            if len(input_shape) == 2 and input_shape == (self.steps, self.in_features):
                return (self.steps, self.out_features)
            raise ValueError(
                f"{self.name}: recurrent FC expects ({self.steps}, "
                f"{self.in_features}), got {input_shape}"
            )
        if self.tokens > 1:
            if len(input_shape) == 2 and input_shape == (self.tokens, self.in_features):
                return (self.tokens, self.out_features)
            raise ValueError(
                f"{self.name}: per-token FC expects ({self.tokens}, "
                f"{self.in_features}), got {input_shape}"
            )
        if (
            len(input_shape) > 1
            and input_shape[-1] != self.in_features
            and math.prod(input_shape) == self.in_features
        ):
            return (self.out_features,)  # implicit flatten after conv/pool
        if input_shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, "
                f"got shape {input_shape}"
            )
        return input_shape[:-1] + (self.out_features,)


@dataclass(frozen=True)
class Conv2D:
    """A 2-D convolution lowered to the MXU via im2col.

    The matrix view maps the flattened receptive field (kernel x kernel x
    in_channels) to the MXU rows and out_channels to its columns -- the
    C-to-rows / M-to-columns mapping the paper describes in Eyeriss terms.
    """

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    input_hw: tuple[int, int]
    stride: int = 1
    activation: Activation = Activation.RELU

    def __post_init__(self) -> None:
        _require_positive(
            in_channels=self.in_channels,
            out_channels=self.out_channels,
            kernel=self.kernel,
            stride=self.stride,
        )
        _require_positive(input_h=self.input_hw[0], input_w=self.input_hw[1])

    @property
    def kind(self) -> LayerKind:
        return LayerKind.CONV

    @property
    def steps(self) -> int:
        return 1

    @property
    def out_hw(self) -> tuple[int, int]:
        """'Same' padding: output spatial dims are ceil(input / stride)."""
        return (
            math.ceil(self.input_hw[0] / self.stride),
            math.ceil(self.input_hw[1] / self.stride),
        )

    @property
    def weight_count(self) -> int:
        return self.kernel * self.kernel * self.in_channels * self.out_channels

    @property
    def matmul_shape(self) -> tuple[int, int]:
        return (self.kernel * self.kernel * self.in_channels, self.out_channels)

    @property
    def rows_per_example(self) -> int:
        oh, ow = self.out_hw
        return oh * ow

    @property
    def macs_per_example(self) -> int:
        k, n = self.matmul_shape
        return self.rows_per_example * k * n

    @property
    def vector_elements_per_example(self) -> int:
        return 0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[2] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (H, W, {self.in_channels}), got {input_shape}"
            )
        if (input_shape[0], input_shape[1]) != self.input_hw:
            raise ValueError(
                f"{self.name}: expected spatial dims {self.input_hw}, "
                f"got {input_shape[:2]}"
            )
        oh, ow = self.out_hw
        return (oh, ow, self.out_channels)


@dataclass(frozen=True)
class LSTMCell:
    """A single LSTM layer run for ``steps`` time steps.

    Functionally this is the standard cell: a fused gate matmul of the
    concatenated (input, hidden) vector against a (x + h, 4h) matrix, then
    sigmoid/tanh gating.  For cost purposes the fused gate matrix is the
    weight tile the MXU must reload *every time step* (weights never fit
    on chip), which is why LSTM operational intensity equals the batch
    size in Table 1.
    """

    name: str
    input_size: int
    hidden_size: int
    steps: int

    def __post_init__(self) -> None:
        _require_positive(
            input_size=self.input_size, hidden_size=self.hidden_size, steps=self.steps
        )

    @property
    def kind(self) -> LayerKind:
        return LayerKind.LSTM

    @property
    def activation(self) -> Activation:
        return Activation.NONE  # gating is handled by the vector path

    @property
    def weight_count(self) -> int:
        return (self.input_size + self.hidden_size) * 4 * self.hidden_size

    @property
    def matmul_shape(self) -> tuple[int, int]:
        return (self.input_size + self.hidden_size, 4 * self.hidden_size)

    @property
    def rows_per_example(self) -> int:
        return 1  # one gate row per example per time step

    @property
    def macs_per_example(self) -> int:
        k, n = self.matmul_shape
        return self.steps * k * n

    @property
    def vector_elements_per_example(self) -> int:
        # Per step: 3 sigmoids + 2 tanh on h-wide vectors, 3 multiplies,
        # 1 add -> 9 h-wide element-wise passes.
        return self.steps * 9 * self.hidden_size

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 2 or input_shape[1] != self.input_size:
            raise ValueError(
                f"{self.name}: expected (T, {self.input_size}), got {input_shape}"
            )
        if input_shape[0] != self.steps:
            raise ValueError(
                f"{self.name}: expected {self.steps} time steps, got {input_shape[0]}"
            )
        return (self.steps, self.hidden_size)


@dataclass(frozen=True)
class VectorOp:
    """A weightless element-wise layer (sigmoid/tanh/relu/scale/add)."""

    name: str
    op: Activation = Activation.TANH
    steps: int = 1

    @property
    def kind(self) -> LayerKind:
        return LayerKind.VECTOR

    @property
    def activation(self) -> Activation:
        return self.op

    @property
    def weight_count(self) -> int:
        return 0

    @property
    def matmul_shape(self) -> None:
        return None

    @property
    def rows_per_example(self) -> int:
        return 0

    @property
    def macs_per_example(self) -> int:
        return 0

    @property
    def vector_elements_per_example(self) -> int:
        # Resolved against the incoming shape at compile time; this field
        # reports per-step passes so Model.totals can scale by shape.
        return 0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


@dataclass(frozen=True)
class Pooling:
    """Max pooling, executed by the TPU's dedicated pooling hardware."""

    name: str
    window: int
    stride: int

    def __post_init__(self) -> None:
        _require_positive(window=self.window, stride=self.stride)

    @property
    def kind(self) -> LayerKind:
        return LayerKind.POOL

    @property
    def activation(self) -> Activation:
        return Activation.NONE

    @property
    def steps(self) -> int:
        return 1

    @property
    def weight_count(self) -> int:
        return 0

    @property
    def matmul_shape(self) -> None:
        return None

    @property
    def rows_per_example(self) -> int:
        return 0

    @property
    def macs_per_example(self) -> int:
        return 0

    @property
    def vector_elements_per_example(self) -> int:
        return 0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"{self.name}: pooling expects (H, W, C), got {input_shape}")
        h, w, c = input_shape
        return (math.ceil(h / self.stride), math.ceil(w / self.stride), c)


@dataclass(frozen=True)
class AttentionMatmul:
    """One matmul in an attention layer's decomposition.

    ``count_per_example`` is how many independent (rows x k) @ (k x n)
    products one example performs (1 for shared-weight projections,
    ``num_heads`` for the per-head score/context matmuls).  ``dynamic``
    marks operand matrices built from activations (K^T, V): they carry no
    trained weights and must be re-staged per example, which is what the
    compiler and performance model charge to the weight-memory path.
    """

    label: str
    rows: int
    k: int
    n: int
    count_per_example: int = 1
    dynamic: bool = False

    @property
    def macs_per_example(self) -> int:
        return self.count_per_example * self.rows * self.k * self.n


@dataclass(frozen=True)
class MultiHeadAttention:
    """Multi-head self-attention over a ``(seq_len, embed_dim)`` input.

    The layer decomposes exactly the way a weight-stationary MXU has to
    run it (see :meth:`matmuls_per_example`):

    1. **QKV projection** -- one fused ``(d, 3d)`` weight matmul over the
       example's ``seq_len`` token rows;
    2. **scores** -- per head, ``Q_h @ K_h^T``: a ``(T, d_h) @ (d_h, T)``
       product whose right operand is an *activation*, not a weight;
    3. **softmax** -- row-wise normalization on the vector path;
    4. **context** -- per head, ``softmax(scores) @ V_h``;
    5. **output projection** -- one ``(d, d)`` weight matmul.

    Trained weights are the four projections (``4 d^2``); the score and
    context operands are dynamic (per-example K/V staged through Weight
    Memory on a v1-class device), so they contribute MACs but no weight
    bytes -- the reason prefill operational intensity grows with
    ``batch * seq_len`` while decode collapses to ``~batch``.

    ``causal`` marks decoder-style masked attention.  A 2016 MXU has no
    sparsity support, so masking changes the *semantics* (a vector-path
    mask-add before softmax) but not the matmul cost.
    """

    name: str
    embed_dim: int
    num_heads: int
    seq_len: int
    causal: bool = False

    def __post_init__(self) -> None:
        _require_positive(
            embed_dim=self.embed_dim,
            num_heads=self.num_heads,
            seq_len=self.seq_len,
        )
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"{self.name}: embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )

    @property
    def kind(self) -> LayerKind:
        return LayerKind.ATTENTION

    @property
    def activation(self) -> Activation:
        return Activation.NONE  # softmax runs on the vector path

    @property
    def steps(self) -> int:
        return 1

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def weight_count(self) -> int:
        """Trained weights: Q, K, V and output projections (4 d^2)."""
        return 4 * self.embed_dim * self.embed_dim

    @property
    def matmul_shape(self) -> tuple[int, int]:
        """(K, N) of the dominant weight tile: the fused QKV projection.

        The full decomposition (including the dynamic score/context
        products) is :meth:`matmuls_per_example`.
        """
        return (self.embed_dim, 3 * self.embed_dim)

    def matmuls_per_example(self) -> tuple[AttentionMatmul, ...]:
        """Every matmul one example performs, in execution order."""
        d, h, t = self.embed_dim, self.num_heads, self.seq_len
        dh = self.head_dim
        return (
            AttentionMatmul("qkv_proj", rows=t, k=d, n=3 * d),
            AttentionMatmul("scores", rows=t, k=dh, n=t, count_per_example=h, dynamic=True),
            AttentionMatmul("context", rows=t, k=t, n=dh, count_per_example=h, dynamic=True),
            AttentionMatmul("out_proj", rows=t, k=d, n=d),
        )

    @property
    def rows_per_example(self) -> int:
        return self.seq_len

    @property
    def macs_per_example(self) -> int:
        """Closed form: ``T * 4d^2 + 2 * T^2 * d`` (projections + attention)."""
        return sum(m.macs_per_example for m in self.matmuls_per_example())

    @property
    def vector_elements_per_example(self) -> int:
        """Softmax passes, optional mask-add, and the head concat."""
        d, h, t = self.embed_dim, self.num_heads, self.seq_len
        softmax = SOFTMAX_PASSES * h * t * t
        mask = h * t * t if self.causal else 0
        concat = t * d
        return softmax + mask + concat

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 2 or input_shape != (self.seq_len, self.embed_dim):
            raise ValueError(
                f"{self.name}: expected ({self.seq_len}, {self.embed_dim}), "
                f"got {input_shape}"
            )
        return input_shape


@dataclass(frozen=True)
class LayerNorm:
    """Layer normalization over the feature axis of ``(T, F)`` tokens.

    Pure vector-unit work: mean/variance reduction, normalize, and the
    gamma/beta affine (~5 passes over the tensor).  The affine parameters
    (2F values) ride in the requantization scale path like biases do, so
    -- following the repo's biasless Table 1 convention -- they are not
    counted as Weight Memory traffic.
    """

    name: str
    features: int
    seq_len: int

    def __post_init__(self) -> None:
        _require_positive(features=self.features, seq_len=self.seq_len)

    #: Vector-path passes over the tensor (mean, variance, normalize,
    #: scale, shift).  Canonical count: ``VectorKind.PASSES`` (device
    #: timing) and the analytic layer cost both read this.
    PASSES = 5

    @property
    def kind(self) -> LayerKind:
        return LayerKind.NORM

    @property
    def activation(self) -> Activation:
        return Activation.NONE

    @property
    def steps(self) -> int:
        return 1

    @property
    def weight_count(self) -> int:
        return 0

    @property
    def matmul_shape(self) -> None:
        return None

    @property
    def rows_per_example(self) -> int:
        return 0

    @property
    def macs_per_example(self) -> int:
        return 0

    @property
    def vector_elements_per_example(self) -> int:
        return self.PASSES * self.seq_len * self.features

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 2 or input_shape != (self.seq_len, self.features):
            raise ValueError(
                f"{self.name}: expected ({self.seq_len}, {self.features}), "
                f"got {input_shape}"
            )
        return input_shape


Layer = Union[
    FullyConnected,
    Conv2D,
    LSTMCell,
    VectorOp,
    Pooling,
    MultiHeadAttention,
    LayerNorm,
]
