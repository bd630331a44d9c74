"""The six applications must match Table 1's published characteristics."""

import pytest

from repro import _paper
from repro.nn.workloads import (
    DEPLOYMENT_MIX,
    build_workload,
    mix_means,
    paper_workloads,
)

#: Tolerated relative deviation from Table 1's weights / intensity.
BAND = 0.20


class TestCensus:
    @pytest.mark.parametrize("name", list(_paper.TABLE1))
    def test_layer_counts_exact(self, workloads, name):
        census = workloads[name].layer_census()
        pub = _paper.TABLE1[name]
        assert census["fc"] == pub["fc"]
        assert census["conv"] == pub["conv"]
        assert census["vector"] == pub["vector"]
        assert census["pool"] == pub["pool"]
        assert census["total"] == pub["total"]

    @pytest.mark.parametrize("name", list(_paper.TABLE1))
    def test_batch_exact(self, workloads, name):
        assert workloads[name].batch_size == _paper.TABLE1[name]["batch"]

    @pytest.mark.parametrize("name", list(_paper.TABLE1))
    def test_weights_within_band(self, workloads, name):
        measured = workloads[name].total_weights / 1e6
        published = _paper.TABLE1[name]["weights_m"]
        assert measured == pytest.approx(published, rel=BAND)

    @pytest.mark.parametrize("name", list(_paper.TABLE1))
    def test_intensity_within_band(self, workloads, name):
        measured = workloads[name].ops_per_weight_byte()
        published = _paper.TABLE1[name]["ops_per_byte"]
        assert measured == pytest.approx(published, rel=BAND)

    def test_fc_models_intensity_equals_batch(self, workloads):
        for name in ("mlp0", "mlp1", "lstm0", "lstm1"):
            model = workloads[name]
            assert model.ops_per_weight_byte() == pytest.approx(model.batch_size)


class TestStructure:
    def test_lstm1_contains_600x600(self, workloads):
        shapes = {
            layer.matmul_shape
            for layer in workloads["lstm1"].layers
            if layer.matmul_shape
        }
        assert (600, 600) in shapes

    def test_cnn1_has_shallow_depth(self, workloads):
        from repro.nn.layers import Conv2D

        depths = {
            layer.out_channels
            for layer in workloads["cnn1"].layers
            if isinstance(layer, Conv2D)
        }
        assert all(d < 256 for d in depths)

    def test_cnn1_residuals_span_blocks(self, workloads):
        sources = workloads["cnn1"].residual_sources
        assert len(sources) >= 10
        spans = [dst - src for dst, src in sources.items()]
        assert max(spans) > 30  # long-range feature reuse

    def test_cnn0_is_conv_only(self, workloads):
        census = workloads["cnn0"].layer_census()
        assert census["conv"] == census["total"] == 16

    def test_cnns_above_tpu_ridge(self, workloads):
        # The qualitative split: CNNs compute-bound, MLPs/LSTMs memory-bound.
        from repro.core.config import TPU_V1

        ridge = TPU_V1.ridge_ops_per_byte
        for name, model in workloads.items():
            intensity = model.ops_per_weight_byte()
            if name.startswith("cnn"):
                assert intensity > ridge
            else:
                assert intensity < ridge


class TestMix:
    def test_mix_sums_to_one(self):
        assert sum(DEPLOYMENT_MIX.values()) == pytest.approx(1.0)

    def test_lead_apps_carry_pair_weight(self):
        assert DEPLOYMENT_MIX["mlp0"] > DEPLOYMENT_MIX["lstm0"] > DEPLOYMENT_MIX["cnn0"]
        assert DEPLOYMENT_MIX["mlp1"] == 0.0

    def test_mix_means_align_weights_by_name(self):
        gm, wm = mix_means({"cnn0": 4.0, "mlp0": 1.0})
        cnn0, mlp0 = DEPLOYMENT_MIX["cnn0"], DEPLOYMENT_MIX["mlp0"]
        assert gm == pytest.approx(2.0)
        assert wm == pytest.approx((4.0 * cnn0 + 1.0 * mlp0) / (cnn0 + mlp0))

    def test_an_app_outside_the_mix_weighs_nothing(self):
        """Every six-app summary shares one rule: an app outside the mix
        (an extension workload) counts in the geometric mean only, and a
        result with no weighted app has no weighted mean."""
        gm, wm = mix_means({"mlp0": 2.0, "bert_s": 8.0})
        assert gm == pytest.approx(4.0)
        assert wm == pytest.approx(2.0)
        with pytest.raises(ValueError, match="weights must sum to a positive value"):
            mix_means({"bert_s": 8.0})

    def test_build_workload_by_name(self):
        assert build_workload("MLP0").name == "mlp0"
        with pytest.raises(KeyError):
            build_workload("vgg")

    def test_paper_workloads_order(self):
        assert list(paper_workloads()) == ["mlp0", "mlp1", "lstm0", "lstm1", "cnn0", "cnn1"]
