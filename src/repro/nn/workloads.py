"""The six production-representative applications of Table 1, plus the
transformer extension family (BERT/GPT-style, post-2016 workloads).

We do not have Google's production models (RankBrain, the GNM Translate
subset, Inception, AlphaGo), so each builder synthesizes a network whose
*published* characteristics match Table 1: layer counts and types, total
weights, TPU batch size, and operational intensity (MACs per weight byte).
Every conclusion in the paper's evaluation flows through exactly these
aggregates, so matching them preserves the behaviour that matters.

The registry is split in two tiers (see docs/WORKLOADS.md):

* **paper workloads** (:data:`PAPER_BUILDERS`) -- the Table 1 six.  All
  paper-parity surfaces (Tables 1-8, Figures 5-11, :data:`DEPLOYMENT_MIX`)
  are pinned to exactly this set and never see extensions.
* **extension workloads** (:data:`EXTENSION_BUILDERS`) -- transformer
  inference (``bert_s``, ``bert_l``, ``gpt_s``), available to profiling,
  serving, datacenter planning, sweeps, and the ``transformer_roofline``
  experiment.

Notable calibration points (see docs/WORKLOADS.md):

* LSTM1 embeds 600x600 matrices -- the exact example Section 7 uses to
  explain why a 512x512 matrix unit would hurt.
* CNN1 mixes shallow-depth convolutions (feature depth < 256, so part of
  the MXU idles) with four large FC layers that run at operational
  intensity 32 -- the two effects behind the paper's CNN1 analysis.
* CNN1 carries residual (skip) connections so skipped-over tensors stay
  live in the Unified Buffer, driving its large Table 8 footprint.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.nn.graph import Model
from repro.nn.layers import (
    Activation,
    Conv2D,
    FullyConnected,
    Layer,
    LayerNorm,
    LSTMCell,
    MultiHeadAttention,
    Pooling,
    VectorOp,
)
from repro.util.stats import geometric_mean, weighted_mean

#: Deployment mix (Table 1, July 2016): MLPs 61%, LSTMs 29%, CNNs 5%.
#: The paper's weighted means are reproduced when the pair weight rides on
#: the lead application of each pair (see docs/WORKLOADS.md, "The Table 1
#: six"); the remaining 5% of datacenter load is not NN work and is dropped.
DEPLOYMENT_MIX: dict[str, float] = {
    "mlp0": 0.61 / 0.95,
    "mlp1": 0.0,
    "lstm0": 0.29 / 0.95,
    "lstm1": 0.0,
    "cnn0": 0.05 / 0.95,
    "cnn1": 0.0,
}


def mix_means(per_app: dict[str, float]) -> tuple[float, float]:
    """The paper's pair of six-app summaries of a per-app result: the
    geometric mean, and the mean weighted by :data:`DEPLOYMENT_MIX`.

    An app outside the mix weighs nothing, as MLP1 does, so a result
    in which no app carries weight has no weighted mean (``ValueError``).
    """
    values = list(per_app.values())
    weights = [DEPLOYMENT_MIX.get(name, 0.0) for name in per_app]
    return geometric_mean(values), weighted_mean(values, weights)


def mlp0() -> Model:
    """RankBrain-like MLP: 5 FC layers, ~20M weights, batch 200."""
    layers: list[Layer] = [
        FullyConnected("fc0", 3600, 2000),
        FullyConnected("fc1", 2000, 2000),
        FullyConnected("fc2", 2000, 2000),
        FullyConnected("fc3", 2000, 2000),
        FullyConnected("fc4", 2000, 1600),
    ]
    return Model(
        name="mlp0",
        layers=tuple(layers),
        input_shape=(3600,),
        batch_size=200,
        description="search-ranking MLP (RankBrain-like), 61% pair share",
    )


def mlp1() -> Model:
    """A smaller MLP: 4 FC layers, ~5M weights, batch 168."""
    layers: list[Layer] = [
        FullyConnected("fc0", 300, 1500),
        FullyConnected("fc1", 1500, 1500),
        FullyConnected("fc2", 1500, 1500),
        FullyConnected("fc3", 1500, 300),
    ]
    return Model(
        name="mlp1",
        layers=tuple(layers),
        input_shape=(300,),
        batch_size=168,
        description="small ranking MLP",
    )


def lstm0() -> Model:
    """GNM-Translate-like stack: 24 LSTM layers + 34 vector layers, ~52M
    weights, batch 64, 32 time steps."""
    steps = 32
    layers: list[Layer] = []
    vector_budget = 34
    for i in range(24):
        layers.append(LSTMCell(f"lstm{i}", input_size=512, hidden_size=512, steps=steps))
        # Sprinkle the 34 explicit vector layers between cells: attention
        # blends, residual scalers, and similar element-wise stages.
        take = 2 if vector_budget >= 2 and i % 3 != 2 else 1
        for j in range(min(take, vector_budget)):
            op = Activation.TANH if (i + j) % 2 == 0 else Activation.SIGMOID
            layers.append(VectorOp(f"vec{i}_{j}", op=op))
            vector_budget -= 1
    while vector_budget > 0:
        layers.append(VectorOp(f"vec_tail{vector_budget}", op=Activation.TANH))
        vector_budget -= 1
    return Model(
        name="lstm0",
        layers=tuple(layers),
        input_shape=(steps, 512),
        batch_size=64,
        description="translation LSTM stack (GNM-like), 29% pair share",
    )


def lstm1() -> Model:
    """A projection-heavy LSTM: 10 cells + 27 recurrent 600x600 FC layers
    + 19 vector layers, ~34M weights, batch 96, 20 time steps.

    The 600x600 matrices are the Section 7 example: they tile into nine
    256x256 passes but only four 512x512 passes that each take 4x longer.
    """
    steps = 20
    layers: list[Layer] = []
    fc_budget = 27
    vector_budget = 19
    for i in range(10):
        layers.append(LSTMCell(f"lstm{i}", input_size=600, hidden_size=600, steps=steps))
        for j in range(3):
            if fc_budget > 0:
                layers.append(
                    FullyConnected(
                        f"proj{i}_{j}", 600, 600, Activation.RELU, steps=steps
                    )
                )
                fc_budget -= 1
        if vector_budget > 0:
            layers.append(VectorOp(f"vec{i}", op=Activation.SIGMOID))
            vector_budget -= 1
    while vector_budget > 0:
        layers.append(VectorOp(f"vec_tail{vector_budget}", op=Activation.TANH))
        vector_budget -= 1
    return Model(
        name="lstm1",
        layers=tuple(layers),
        input_shape=(steps, 600),
        batch_size=96,
        description="projection-heavy LSTM with 600x600 matrices",
    )


def cnn0() -> Model:
    """Inception-V2-like CNN: 16 conv layers, ~8M weights, batch 8.

    Deep (256-wide) feature depths fill the matrix unit, making this the
    compute-bound app that reaches 86 TOPS in Table 3.
    """
    layers: list[Layer] = [
        Conv2D("stem", 32, 64, kernel=5, input_hw=(38, 38)),
        Conv2D("reduce0", 64, 128, kernel=3, input_hw=(38, 38), stride=2),
        Conv2D("expand", 128, 256, kernel=3, input_hw=(19, 19)),
    ]
    for i in range(9):
        layers.append(Conv2D(f"block{i}", 256, 256, kernel=3, input_hw=(19, 19)))
    layers.append(Conv2D("reduce1", 256, 200, kernel=3, input_hw=(19, 19), stride=2))
    for i in range(3):
        layers.append(Conv2D(f"tail{i}", 200, 200, kernel=3, input_hw=(10, 10)))
    return Model(
        name="cnn0",
        layers=tuple(layers),
        input_shape=(38, 38, 32),
        batch_size=8,
        description="vision CNN (Inception-like), 5% pair share",
    )


def cnn1() -> Model:
    """AlphaGo-like CNN: 72 conv + 13 pool + 4 FC layers, ~100M weights,
    batch 32, on a 19x19 board.

    The 144-wide feature depth is deliberately shallow (< 256), so only
    about half the matrix unit's MACs hold useful weights on active
    cycles -- the paper's explanation for CNN1's utilization.  Long-range
    skips keep early tower tensors live deep into the network, stretching
    the Unified Buffer footprint toward Table 8's 13.9 MiB.
    """
    width = 144
    layers: list[Layer] = [Conv2D("stem", 48, width, kernel=5, input_hw=(19, 19))]
    residuals: dict[int, int] = {}
    conv_done = 1
    pool_budget = 11  # shape-preserving pools inside the tower
    block_start = 0  # layer index of the most recent residual source
    long_skip_sources: list[int] = [0]
    while conv_done < 72:
        layers.append(
            Conv2D(f"tower{conv_done}", width, width, kernel=3, input_hw=(19, 19))
        )
        conv_done += 1
        if conv_done % 6 == 0:
            # Close a residual block: add a skip from the block's entry.
            residuals[len(layers) - 1] = block_start
            block_start = len(layers) - 1
            if conv_done in (12, 24, 36):
                long_skip_sources.append(len(layers) - 1)
            if pool_budget > 0:
                layers.append(Pooling(f"pool{pool_budget}", window=2, stride=1))
                pool_budget -= 1
    # Long-range feature reuse: skips from the stem and early block exits
    # into the deep tower keep those tensors live across most of the
    # network (AlphaGo-style board-feature reuse).
    tower_end = len(layers) - 1
    for i, src in enumerate(long_skip_sources):
        dst = tower_end - 2 * i
        while dst in residuals or not isinstance(layers[dst], Conv2D):
            dst -= 1
        residuals[dst] = src
    while pool_budget > 0:
        layers.append(Pooling(f"pool{pool_budget}", window=2, stride=1))
        pool_budget -= 1
    layers.append(Pooling("shrink0", window=2, stride=2))  # 19 -> 10
    layers.append(Pooling("shrink1", window=2, stride=2))  # 10 -> 5
    layers.append(FullyConnected("fc0", 5 * 5 * width, 6144))
    layers.append(FullyConnected("fc1", 6144, 6144))
    layers.append(FullyConnected("fc2", 6144, 4096))
    layers.append(FullyConnected("fc3", 4096, 512))
    return Model(
        name="cnn1",
        layers=tuple(layers),
        input_shape=(19, 19, 48),
        batch_size=32,
        residual_sources=residuals,
        description="game-playing CNN (AlphaGo-like) with wide FC head",
    )


# ---------------------------------------------------------------------------
# transformer extension family (not part of any Table 1 surface)
# ---------------------------------------------------------------------------
def _transformer_layers(
    prefix: str,
    blocks: int,
    embed_dim: int,
    num_heads: int,
    ffn_dim: int,
    seq_len: int,
    causal: bool,
) -> tuple[list[Layer], dict[int, int]]:
    """Pre-norm transformer blocks: LN -> MHA (+skip) -> LN -> FFN (+skip).

    Returns the layer list and the residual map (attention output adds
    the block input; the second FFN matmul adds the post-attention
    tensor), mirroring how CNN1 encodes its skips.
    """
    layers: list[Layer] = []
    residuals: dict[int, int] = {}
    for b in range(blocks):
        block_in = len(layers) - 1  # -1 = model input for the first block
        layers.append(LayerNorm(f"{prefix}{b}_ln0", embed_dim, seq_len))
        layers.append(
            MultiHeadAttention(
                f"{prefix}{b}_attn", embed_dim, num_heads, seq_len, causal=causal
            )
        )
        attn_out = len(layers) - 1
        residuals[attn_out] = block_in
        layers.append(LayerNorm(f"{prefix}{b}_ln1", embed_dim, seq_len))
        layers.append(
            FullyConnected(
                f"{prefix}{b}_ffn0", embed_dim, ffn_dim, Activation.RELU, tokens=seq_len
            )
        )
        layers.append(
            FullyConnected(
                f"{prefix}{b}_ffn1", ffn_dim, embed_dim, Activation.NONE, tokens=seq_len
            )
        )
        residuals[len(layers) - 1] = attn_out
    layers.append(LayerNorm(f"{prefix}_ln_final", embed_dim, seq_len))
    return layers, residuals


def _transformer(
    name: str,
    blocks: int,
    embed_dim: int,
    num_heads: int,
    seq_len: int,
    batch_size: int,
    causal: bool,
    description: str,
) -> Model:
    layers, residuals = _transformer_layers(
        name, blocks, embed_dim, num_heads, 4 * embed_dim, seq_len, causal
    )
    return Model(
        name=name,
        layers=tuple(layers),
        input_shape=(seq_len, embed_dim),
        batch_size=batch_size,
        residual_sources=residuals,
        description=description,
    )


def bert_s(seq_len: int = 128) -> Model:
    """A small bidirectional encoder: 4 blocks, d=512, 8 heads, ~12.6M
    weights, batch 16.

    At batch 16 x 128 tokens its prefill operational intensity sits just
    above the TPU ridge -- the first compute-bound non-CNN workload in
    the repo.
    """
    return _transformer(
        "bert_s", blocks=4, embed_dim=512, num_heads=8, seq_len=seq_len,
        batch_size=16, causal=False,
        description="small BERT-style encoder (extension workload)",
    )


def bert_l(seq_len: int = 128) -> Model:
    """A larger encoder: 8 blocks, d=768, 12 heads, ~56.6M weights,
    batch 4 (latency-bound serving keeps the batch small, so its prefill
    intensity lands *below* the ridge despite the big matmuls)."""
    return _transformer(
        "bert_l", blocks=8, embed_dim=768, num_heads=12, seq_len=seq_len,
        batch_size=4, causal=False,
        description="large BERT-style encoder (extension workload)",
    )


def gpt_s(seq_len: int = 256) -> Model:
    """A causal decoder scoring/prefill pass: 6 blocks, d=512, 8 heads,
    ~18.9M weights, batch 4, 256-token context.

    This models the *prefill* (full-sequence) pass.  Per-token
    autoregressive decode re-reads every weight per generated token, so
    its intensity collapses to ~batch like the LSTMs -- that regime is
    covered analytically by the ``transformer_roofline`` experiment and
    docs/WORKLOADS.md rather than by instruction-level simulation.
    """
    return _transformer(
        "gpt_s", blocks=6, embed_dim=512, num_heads=8, seq_len=seq_len,
        batch_size=4, causal=True,
        description="GPT-style causal decoder, prefill pass (extension workload)",
    )


#: The Table 1 six, in the paper's order.  Every paper-parity surface
#: (Tables 1-8, Figures, DEPLOYMENT_MIX) draws from exactly this dict.
PAPER_BUILDERS: dict[str, Callable[[], Model]] = {
    "mlp0": mlp0,
    "mlp1": mlp1,
    "lstm0": lstm0,
    "lstm1": lstm1,
    "cnn0": cnn0,
    "cnn1": cnn1,
}

#: Post-2016 extension workloads: available everywhere *except* the
#: paper-parity tables/figures and the deployment mix.
EXTENSION_BUILDERS: dict[str, Callable[[], Model]] = {
    "bert_s": bert_s,
    "bert_l": bert_l,
    "gpt_s": gpt_s,
}

#: The full registry the CLI, scenario specs, and sweeps resolve against.
WORKLOAD_BUILDERS: dict[str, Callable[[], Model]] = {
    **PAPER_BUILDERS,
    **EXTENSION_BUILDERS,
}

#: Canonical paper order for the six.
PAPER_WORKLOAD_NAMES: tuple[str, ...] = tuple(PAPER_BUILDERS)

#: Extension names, in registry order.
EXTENSION_WORKLOAD_NAMES: tuple[str, ...] = tuple(EXTENSION_BUILDERS)

#: Every buildable workload: the paper six first, then extensions.
WORKLOAD_NAMES: tuple[str, ...] = tuple(WORKLOAD_BUILDERS)


def unknown_workload_message(name: str) -> str:
    """The shared 'unknown workload' hint, naming both registry tiers."""
    return (
        f"unknown workload {name!r}; paper workloads: "
        f"{', '.join(PAPER_WORKLOAD_NAMES)}; extension workloads: "
        f"{', '.join(EXTENSION_WORKLOAD_NAMES)}"
    )


def build_workload(name: str) -> Model:
    """Build any registered workload by (lowercase) name."""
    try:
        return WORKLOAD_BUILDERS[name.lower()]()
    except KeyError:
        raise KeyError(unknown_workload_message(name)) from None


def paper_workloads() -> dict[str, Model]:
    """The six Table 1 applications only, keyed by name, in paper order."""
    return {name: builder() for name, builder in PAPER_BUILDERS.items()}


def extension_workloads() -> dict[str, Model]:
    """The transformer extension family, keyed by name."""
    return {name: builder() for name, builder in EXTENSION_BUILDERS.items()}
