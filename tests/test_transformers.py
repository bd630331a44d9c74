"""The transformer extension family: analytic invariants, lowering,
serving reachability, and the functional-path gate."""

import math

import pytest

from repro.analysis.transformer import decode_intensity, decode_macs_per_token
from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering
from repro.core.config import TPU_V1
from repro.nn.graph import Model
from repro.nn.layers import (
    Activation,
    FullyConnected,
    LayerNorm,
    MultiHeadAttention,
)
from repro.nn.reference import ReferenceExecutor
from repro.nn.workloads import (
    EXTENSION_WORKLOAD_NAMES,
    PAPER_WORKLOAD_NAMES,
    build_workload,
    bert_s,
    extension_workloads,
    gpt_s,
    paper_workloads,
)
from repro.perfmodel.model import app_cost
from repro.platforms.kv import DecodeTiming


def _attention_only(embed_dim: int, num_heads: int) -> Model:
    return Model(
        name="attn_only",
        layers=(MultiHeadAttention("attn", embed_dim, num_heads, seq_len=8),),
        input_shape=(8, embed_dim),
        batch_size=2,
    )


@pytest.fixture(scope="module")
def transformers():
    return extension_workloads()


@pytest.fixture(scope="module")
def driver():
    return TPUDriver()


class TestAttentionAccounting:
    """Closed-form invariants of the MultiHeadAttention layer."""

    def test_macs_closed_form(self):
        layer = MultiHeadAttention("attn", embed_dim=512, num_heads=8, seq_len=128)
        d, t = 512, 128
        assert layer.macs_per_example == t * 4 * d * d + 2 * t * t * d

    def test_weight_count_is_four_projections(self):
        layer = MultiHeadAttention("attn", embed_dim=768, num_heads=12, seq_len=64)
        assert layer.weight_count == 4 * 768 * 768

    def test_matmul_shape_is_fused_qkv(self):
        layer = MultiHeadAttention("attn", embed_dim=512, num_heads=8, seq_len=128)
        assert layer.matmul_shape == (512, 3 * 512)

    def test_decomposition_macs_match_total(self):
        layer = MultiHeadAttention("attn", embed_dim=256, num_heads=4, seq_len=96)
        decomposed = sum(m.macs_per_example for m in layer.matmuls_per_example())
        assert decomposed == layer.macs_per_example

    def test_dynamic_matmuls_carry_no_weights(self):
        layer = MultiHeadAttention("attn", embed_dim=256, num_heads=4, seq_len=96)
        static = [m for m in layer.matmuls_per_example() if not m.dynamic]
        dynamic = [m for m in layer.matmuls_per_example() if m.dynamic]
        assert sum(m.k * m.n for m in static) == layer.weight_count
        assert {m.label for m in dynamic} == {"scores", "context"}

    def test_score_macs_scale_quadratically_with_seq_len(self):
        short = MultiHeadAttention("a", embed_dim=512, num_heads=8, seq_len=64)
        long = MultiHeadAttention("a", embed_dim=512, num_heads=8, seq_len=128)
        # Subtract the linear projection term; what remains is 2T^2 d.
        proj = lambda la: la.seq_len * 4 * la.embed_dim**2  # noqa: E731
        assert (long.macs_per_example - proj(long)) == 4 * (
            short.macs_per_example - proj(short)
        )

    def test_head_dim_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadAttention("bad", embed_dim=512, num_heads=7, seq_len=64)

    def test_causal_adds_vector_mask_only(self):
        base = MultiHeadAttention("a", embed_dim=256, num_heads=4, seq_len=64)
        causal = MultiHeadAttention("a", embed_dim=256, num_heads=4, seq_len=64, causal=True)
        assert causal.macs_per_example == base.macs_per_example
        assert (
            causal.vector_elements_per_example - base.vector_elements_per_example
            == 4 * 64 * 64
        )


class TestPerTokenFC:
    def test_tokens_scale_macs_not_weights(self):
        fc = FullyConnected("ffn", 512, 2048, tokens=128)
        assert fc.macs_per_example == 128 * 512 * 2048
        assert fc.weight_count == 512 * 2048
        assert fc.rows_per_example == 128

    def test_steps_and_tokens_exclusive(self):
        with pytest.raises(ValueError):
            FullyConnected("bad", 512, 512, steps=4, tokens=4)

    def test_shape_rule(self):
        fc = FullyConnected("ffn", 512, 2048, tokens=128)
        assert fc.output_shape((128, 512)) == (128, 2048)
        with pytest.raises(ValueError):
            fc.output_shape((64, 512))


class TestLayerNorm:
    def test_pure_vector_work(self):
        ln = LayerNorm("ln", features=512, seq_len=128)
        assert ln.weight_count == 0
        assert ln.macs_per_example == 0
        assert ln.vector_elements_per_example == LayerNorm.PASSES * 128 * 512


class TestWorkloadAnalytics:
    def test_registry_split(self):
        assert PAPER_WORKLOAD_NAMES == ("mlp0", "mlp1", "lstm0", "lstm1", "cnn0", "cnn1")
        assert set(EXTENSION_WORKLOAD_NAMES) == {"bert_s", "bert_l", "gpt_s"}
        assert set(paper_workloads()) == set(PAPER_WORKLOAD_NAMES)

    def test_build_workload_error_names_both_tiers(self):
        with pytest.raises(KeyError, match="paper workloads.*extension workloads"):
            build_workload("bert_xxl")

    @pytest.mark.parametrize("name", EXTENSION_WORKLOAD_NAMES)
    def test_prefill_intensity_closed_form(self, transformers, name):
        """OI == batch * T * (1 + T / (2d + f)) for a pre-norm stack."""
        model = transformers[name]
        attn = next(
            la for la in model.layers if isinstance(la, MultiHeadAttention)
        )
        d, t = attn.embed_dim, attn.seq_len
        expected = model.batch_size * t * (1 + t / (2 * d + 4 * d))
        assert model.ops_per_weight_byte() == pytest.approx(expected)

    @pytest.mark.parametrize("name", EXTENSION_WORKLOAD_NAMES)
    def test_decode_intensity_collapses_to_batch(self, transformers, name):
        model = transformers[name]
        oi = decode_intensity(model)
        assert model.batch_size <= oi <= 1.2 * model.batch_size

    def test_decode_macs_closed_form(self, transformers):
        model = transformers["bert_s"]
        attn = next(la for la in model.layers if isinstance(la, MultiHeadAttention))
        d, t = attn.embed_dim, attn.seq_len
        blocks = sum(isinstance(la, MultiHeadAttention) for la in model.layers)
        assert decode_macs_per_token(model) == blocks * (
            4 * d * d + 2 * 4 * d * d + 2 * t * d
        )

    def test_seq_len_parameter_scales(self):
        short, long = bert_s(seq_len=64), bert_s(seq_len=128)
        assert short.total_weights == long.total_weights
        assert long.macs_per_example > 2 * short.macs_per_example  # superlinear
        assert long.ops_per_weight_byte() > 2 * short.ops_per_weight_byte()

    def test_weights_match_block_closed_form(self, transformers):
        for model in transformers.values():
            attn = next(la for la in model.layers if isinstance(la, MultiHeadAttention))
            d = attn.embed_dim
            blocks = sum(isinstance(la, MultiHeadAttention) for la in model.layers)
            assert model.total_weights == blocks * (4 * d * d + 2 * d * 4 * d)

    def test_census_buckets(self, transformers):
        census = transformers["bert_s"].layer_census()
        assert census["attention"] == 4
        assert census["norm"] == 9
        assert census["total"] == sum(
            v for k, v in census.items() if k != "total"
        )

    def test_paper_census_unchanged(self):
        census = paper_workloads()["mlp0"].layer_census()
        assert "attention" not in census and "norm" not in census


class TestCompileAndRun:
    @pytest.mark.parametrize("name", EXTENSION_WORKLOAD_NAMES)
    def test_compile_and_profile_smoke(self, transformers, driver, name):
        model = transformers[name]
        compiled = driver.compile(model)
        result = driver.profile(compiled)
        assert result.seconds > 0
        assert result.cycles > 0
        # Useful MACs the device counted must cover the model's actual
        # work (padding can only add, never subtract).
        assert result.useful_macs >= model.macs_per_batch
        assert compiled.ub_peak_bytes <= TPU_V1.unified_buffer_bytes

    def test_one_token_gpt_s_runs_on_the_device(self, driver):
        """At ``seq_len=1`` every layer keeps its (1, 512) token row, so
        gpt_s builds, compiles and runs; the device issues exactly the
        closed form's one-token prefill MACs per example."""
        model = gpt_s(seq_len=1)
        assert model.output_shape == (1, 512)
        result = driver.profile(driver.compile(model))
        issued = result.counters["macs_issued"]
        assert issued == model.batch_size * DecodeTiming.for_model(model).prefill_macs(1)
        assert issued == model.macs_per_batch

    def test_dynamic_tiles_marked_and_packed(self, transformers, driver):
        compiled = driver.compile(transformers["bert_s"])
        tiles = compiled.program.tiles.values()
        dynamic = [t for t in tiles if t.dynamic]
        static = [t for t in tiles if not t.dynamic]
        assert dynamic and static
        # The weight image holds trained weights only.
        assert compiled.program.weight_image_bytes == sum(
            t.rows * t.cols for t in static
        )
        # Dynamic staging traffic is packed: strictly less than padded.
        assert driver.profile(compiled).counters["weight_bytes_read"] < (
            sum(1 for i in compiled.program.instructions
                if type(i).__name__ == "ReadWeights") * TPU_V1.tile_bytes
        )

    def test_weight_traffic_includes_kv_staging(self, transformers, driver):
        """Static weights once per batch + per-(head, example) K/V."""
        model = transformers["bert_s"]
        compiled = driver.compile(model)
        attn_layers = [
            la for la in model.layers if isinstance(la, MultiHeadAttention)
        ]
        kv_bytes = sum(
            2 * la.embed_dim * la.seq_len * model.batch_size for la in attn_layers
        )
        assert driver.profile(compiled).counters["weight_bytes_read"] >= kv_bytes

    def test_perfmodel_tracks_device(self, transformers, driver):
        for name, model in transformers.items():
            modelled = app_cost(model, TPU_V1).seconds
            simulated = driver.profile(driver.compile(model)).seconds
            assert 0.5 < modelled / simulated < 1.5, name

    def test_bert_l_is_weight_bound(self, transformers):
        """OI 526 < ridge 1349: the analytic model must agree."""
        bounds = app_cost(transformers["bert_l"], TPU_V1).bound_fractions()
        assert max(bounds, key=bounds.get) == "weight"

    @pytest.mark.parametrize("embed_dim,num_heads", [(384, 2), (1024, 2)])
    def test_head_straddling_lane_groups_rejected(self, embed_dim, num_heads):
        """Each head's Q and context are addressed through one 256-lane
        group, so a head_dim that does not divide 256 (192 spans groups
        0-1 for head 1; 512 spans two groups per head) must refuse to
        compile instead of emitting addresses its dependency tokens
        contradict."""
        head_dim = embed_dim // num_heads
        model = _attention_only(embed_dim, num_heads)
        with pytest.raises(NotImplementedError, match=f"attn has head_dim {head_dim};"):
            Lowering(model, TPU_V1)

    @pytest.mark.parametrize("embed_dim,num_heads", [(512, 8), (512, 2)])
    def test_head_inside_one_lane_group_compiles(self, embed_dim, num_heads):
        """head_dim 64 (the registered workloads) and 256 (a full group):
        each (head, example) context Activate lands in its head's lanes."""
        head_dim = embed_dim // num_heads
        model = _attention_only(embed_dim, num_heads)
        program = Lowering(model, TPU_V1).lower().program
        base, rows, _width = program.metadata["tensors"]["attn.ctx"]
        ctx = [
            i for i in program.instructions
            if type(i).__name__ == "Activate" and base <= i.ub_row < base + rows * embed_dim // 256
        ]
        assert [(i.ub_row - base) // rows for i in ctx] == [
            h * head_dim // 256 for h in range(num_heads) for _b in range(model.batch_size)
        ]
        assert {i.lanes for i in ctx} == {head_dim}


class TestFunctionalGate:
    def test_reference_executor_refuses_attention(self, transformers):
        with pytest.raises(NotImplementedError, match="timing path"):
            ReferenceExecutor(transformers["bert_s"])

    def test_compile_functional_refuses_attention(self, driver, transformers):
        with pytest.raises(NotImplementedError):
            driver.compile_functional(transformers["gpt_s"])

    def test_per_token_fc_stays_functional(self):
        """tokens>1 alone (no attention) keeps the bit-exact contract."""
        import numpy as np

        model = Model(
            name="token_fc",
            layers=(
                FullyConnected("f0", 32, 64, Activation.RELU, tokens=8),
                FullyConnected("f1", 64, 32, Activation.NONE, tokens=8),
            ),
            input_shape=(8, 32),
            batch_size=4,
        )
        executor = ReferenceExecutor(model)
        x = np.random.default_rng(0).normal(size=(4, 8, 32)).astype(np.float32)
        params = executor.calibrate(x)
        quantized = executor.run_quantized(x, params)
        assert quantized.shape == (4, 8, 32)


class TestServingReachability:
    def test_serve_scenario_accepts_transformers(self):
        from repro.api import ServeScenario

        spec = ServeScenario(workload="bert_s", slo_ms=25.0)
        assert spec.workload == "bert_s"

    def test_spec_error_names_both_tiers(self):
        from repro.api import SpecError, ServeScenario

        with pytest.raises(SpecError, match="extension workloads"):
            ServeScenario(workload="resnet50")

    def test_ub_overflow_reads_as_infeasible_batch(self):
        """A batch whose tensors overflow the UB serves in infinite time
        instead of crashing the latency-curve probe."""
        from repro.analysis.common import platforms, workload

        tpu = platforms()["tpu"]
        model = workload("gpt_s")
        assert math.isinf(tpu.device_seconds(model, 512))
        assert math.isinf(tpu.occupancy_seconds(model, 512))

    def test_adaptive_batcher_stops_at_knee(self):
        """The monotone scan never probes candidates past the budget."""
        from repro.serving.batcher import SLOAdaptiveBatcher

        probed = []

        class Curve:
            def latency(self, batch):
                probed.append(batch)
                return batch * 1e-3

        batcher = SLOAdaptiveBatcher(
            slo_seconds=10e-3, curve=Curve(), candidates=(1, 2, 4, 8, 16, 32)
        )
        assert batcher.max_batch == 4  # budget = 5 ms, latency(8) = 8 ms
        assert 16 not in probed and 32 not in probed


class TestExperiment:
    def test_transformer_roofline_registered_and_runs(self):
        from repro.analysis import EXPERIMENTS

        result = EXPERIMENTS["transformer_roofline"]()
        assert result.exp_id == "transformer_roofline"
        for name in EXTENSION_WORKLOAD_NAMES:
            assert name in result.measured
            m = result.measured[name]
            # Prefill amortizes weights over T token rows; decode does not.
            assert m["prefill_intensity"] > 10 * m["decode_intensity"]
        assert result.measured["bert_s"]["prefill_intensity"] > result.measured["ridge"]
        assert result.measured["bert_l"]["prefill_intensity"] < result.measured["ridge"]
