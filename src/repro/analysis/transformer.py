"""transformer_roofline: the post-2016 workload family on the TPU roofline.

The paper's Figure 5 places the six 2016 applications against the 92-TOPS
/ 34-GB/s roofline.  This experiment replays that analysis on transformer
inference (the workload class that dominates today's datacenters) in its
two serving regimes:

* **prefill** -- the full-sequence pass the instruction-level simulator
  executes: operational intensity grows with ``batch * seq_len`` because
  every weight read is amortized over all token rows;
* **decode** -- autoregressive generation, one token per step with a KV
  cache: every trained weight is re-read per generated token, so the
  intensity collapses to ``~batch`` exactly the way the LSTMs' does.
  Decode is evaluated analytically (closed form below); simulating it
  instruction-by-instruction would add nothing the formula does not say.

Per-block closed forms (d = embed dim, f = FFN dim, T = sequence length,
weights are int8 bytes):

* weights/block          ``4d^2 + 2df``
* prefill MACs/example   ``T(4d^2 + 2df) + 2T^2 d``
* decode MACs/token      ``4d^2 + 2df + 2Td``
* prefill intensity      ``B * T * (1 + T/(2d + f))``  MACs/weight-byte
* decode intensity       ``B * (1 + T/(2d + f))``      MACs/weight-byte

The six Table 1 workloads and every paper figure are untouched: this
experiment draws only from the extension registry.
"""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms
from repro.core.config import TPU_V1
from repro.nn.graph import Model
from repro.nn.layers import MultiHeadAttention
from repro.nn.workloads import extension_workloads
from repro.perfmodel.model import app_cost
from repro.platforms.kv import DecodeTiming
from repro.roofline.model import AppPoint, chip_roofline
from repro.roofline.render import render_roofline
from repro.util.tables import TextTable


def decode_macs_per_token(model: Model) -> int:
    """MACs to generate one token with a full KV cache (per example): the
    serving engine's :class:`DecodeTiming` counts at a ``seq_len``-long
    cache, which every block the transformer builder makes shares."""
    timing = DecodeTiming.for_model(model)
    seq_len = next(la.seq_len for la in model.layers if isinstance(la, MultiHeadAttention))
    return timing.fixed_macs_per_token + timing.attn_macs_per_kv_token * seq_len


def decode_intensity(model: Model, batch: int | None = None) -> float:
    """Decode-regime operational intensity in MACs per weight byte.

    Every trained weight streams from Weight Memory once per generated
    token (nothing is amortized across sequence positions), so intensity
    is ``batch * decode_macs / weights`` -- within a few percent of the
    batch size itself, the same collapse Table 1 shows for the LSTMs.
    """
    batch = model.batch_size if batch is None else batch
    return batch * decode_macs_per_token(model) / model.total_weights


def decode_tokens_per_second(model: Model, batch: int | None = None) -> float:
    """Roofline bound on aggregate generated tokens/s at this batch."""
    batch = model.batch_size if batch is None else batch
    view = chip_roofline(platforms()["tpu"].chip)
    ops = view.attainable(decode_intensity(model, batch))
    return ops / (2.0 * decode_macs_per_token(model))


def run() -> ExperimentResult:
    tpu = platforms()["tpu"]
    view = chip_roofline(tpu.chip)
    models = extension_workloads()

    prefill_points: list[AppPoint] = []
    decode_points: list[AppPoint] = []
    table = TextTable(
        ["Name", "Blocks", "d_model", "Seq", "Batch", "Weights(M)",
         "OI prefill", "OI decode", "TOPS (sim)", "Bound", "Decode tok/s"],
        title="Transformer family -- prefill (simulated) vs decode (analytic)",
    )
    measured: dict = {"ridge": view.ridge_ops_per_byte}
    for name, model in models.items():
        point = tpu.serving_point(model)
        prefill_points.append(
            AppPoint(app=name, intensity=point.intensity, achieved_ops=point.achieved_ops)
        )
        dec_oi = decode_intensity(model)
        dec_tps = decode_tokens_per_second(model)
        decode_points.append(
            AppPoint(app=f"{name}.dec", intensity=dec_oi,
                     achieved_ops=view.attainable(dec_oi))
        )
        cost = app_cost(model, TPU_V1)
        bound = max(cost.bound_fractions().items(), key=lambda kv: kv[1])[0]
        blocks = sum(isinstance(la, MultiHeadAttention) for la in model.layers)
        attn = next(la for la in model.layers if isinstance(la, MultiHeadAttention))
        table.add_row([
            name, blocks, attn.embed_dim, attn.seq_len, model.batch_size,
            model.total_weights / 1e6,
            point.intensity,
            dec_oi,
            point.achieved_ops / 1e12,
            bound,
            f"{dec_tps:,.0f}",
        ])
        measured[name] = {
            "prefill_intensity": point.intensity,
            "prefill_tops": point.achieved_ops / 1e12,
            "decode_intensity": dec_oi,
            "decode_tokens_per_s_bound": dec_tps,
            "bound": bound,
        }

    chart = render_roofline(
        [view],
        {"prefill": prefill_points, "decode (analytic)": decode_points},
        "Transformer inference on the TPU roofline "
        "(ridge ~1350 MACs/weight-byte)",
    )
    notes = (
        "prefill amortizes each weight read over batch x seq_len token rows\n"
        "(bert_s clears the ridge; bert_l's latency-bound batch of 4 leaves it\n"
        "memory-bound despite the biggest matmuls in the repo), while decode\n"
        "re-reads every weight per generated token and collapses to ~batch\n"
        "MACs/byte -- the LSTM regime of Table 1, two years early.  Paper\n"
        "surfaces (Tables 1-8, Figures 5-11) remain pinned to the 2016 six."
    )
    return ExperimentResult(
        exp_id="transformer_roofline",
        text="\n\n".join([table.render(), chart, notes]),
        measured=measured,
        paper={"ridge": _paper.RIDGE_POINTS["tpu"]},
    )
