"""Tests for the layer algebra and model graphs."""


import pytest

from repro.nn.graph import Model, ShapeError, infer_shapes
from repro.nn.layers import (
    Activation,
    Conv2D,
    FullyConnected,
    LSTMCell,
    Pooling,
    VectorOp,
)


class TestFullyConnected:
    def test_cost_signature(self):
        fc = FullyConnected("fc", 128, 256)
        assert fc.weight_count == 128 * 256
        assert fc.macs_per_example == 128 * 256
        assert fc.matmul_shape == (128, 256)
        assert fc.rows_per_example == 1

    def test_recurrent_fc_multiplies_macs(self):
        fc = FullyConnected("proj", 600, 600, steps=20)
        assert fc.macs_per_example == 20 * 600 * 600
        assert fc.weight_count == 600 * 600  # weights stored once

    def test_output_shape_plain(self):
        fc = FullyConnected("fc", 10, 4)
        assert fc.output_shape((10,)) == (4,)

    def test_output_shape_flattens(self):
        fc = FullyConnected("fc", 4 * 4 * 16, 32)
        assert fc.output_shape((4, 4, 16)) == (32,)

    def test_output_shape_keeps_a_token_row(self):
        # A (1, in_features) row is already in features: no flatten.
        assert FullyConnected("fc", 512, 64).output_shape((1, 512)) == (1, 64)

    def test_output_shape_recurrent(self):
        fc = FullyConnected("fc", 600, 300, steps=20)
        assert fc.output_shape((20, 600)) == (20, 300)
        with pytest.raises(ValueError):
            fc.output_shape((10, 600))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            FullyConnected("fc", 10, 4).output_shape((11,))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            FullyConnected("fc", 0, 4)


class TestConv2D:
    def test_same_padding_shapes(self):
        conv = Conv2D("c", 8, 16, kernel=3, input_hw=(19, 19))
        assert conv.out_hw == (19, 19)
        assert conv.output_shape((19, 19, 8)) == (19, 19, 16)

    def test_strided_shapes_ceil(self):
        conv = Conv2D("c", 8, 16, kernel=3, input_hw=(19, 19), stride=2)
        assert conv.out_hw == (10, 10)

    def test_matrix_view(self):
        conv = Conv2D("c", 32, 64, kernel=3, input_hw=(10, 10))
        assert conv.matmul_shape == (3 * 3 * 32, 64)
        assert conv.rows_per_example == 100
        assert conv.macs_per_example == 100 * 288 * 64

    def test_rejects_wrong_input(self):
        conv = Conv2D("c", 8, 16, kernel=3, input_hw=(19, 19))
        with pytest.raises(ValueError):
            conv.output_shape((19, 19, 9))
        with pytest.raises(ValueError):
            conv.output_shape((18, 19, 8))


class TestLSTMCell:
    def test_gate_matrix_shape(self):
        cell = LSTMCell("l", 512, 512, steps=32)
        assert cell.matmul_shape == (1024, 2048)
        assert cell.weight_count == 1024 * 2048

    def test_macs_scale_with_steps(self):
        cell = LSTMCell("l", 512, 512, steps=32)
        assert cell.macs_per_example == 32 * 1024 * 2048

    def test_vector_work_is_nine_passes(self):
        cell = LSTMCell("l", 10, 20, steps=3)
        assert cell.vector_elements_per_example == 3 * 9 * 20

    def test_output_shape(self):
        cell = LSTMCell("l", 12, 16, steps=5)
        assert cell.output_shape((5, 12)) == (5, 16)
        with pytest.raises(ValueError):
            cell.output_shape((4, 12))


class TestPoolingAndVector:
    def test_pooling_shape_ceil(self):
        pool = Pooling("p", window=2, stride=2)
        assert pool.output_shape((19, 19, 64)) == (10, 10, 64)

    def test_pooling_weightless(self):
        assert Pooling("p", 2, 2).weight_count == 0

    def test_vector_preserves_shape(self):
        op = VectorOp("v", op=Activation.TANH)
        assert op.output_shape((32, 600)) == (32, 600)
        assert op.weight_count == 0


class TestModel:
    def test_shape_inference_chains(self, tiny_cnn):
        shapes = tiny_cnn.shapes()
        assert shapes[0] == (8, 8, 16)
        assert shapes[3] == (4, 4, 16)
        assert shapes[-1] == (10,)

    def test_census(self, tiny_cnn):
        census = tiny_cnn.layer_census()
        assert census == {"fc": 2, "conv": 3, "vector": 0, "pool": 1, "total": 6}

    def test_lstm_counts_as_fc(self, tiny_lstm):
        assert tiny_lstm.layer_census()["fc"] == 3  # 2 cells + 1 projection

    def test_totals(self, tiny_mlp):
        assert tiny_mlp.total_weights == 20 * 40 + 40 * 40 + 40 * 8
        assert tiny_mlp.macs_per_example == tiny_mlp.total_weights
        assert tiny_mlp.ops_per_weight_byte() == pytest.approx(5.0)

    def test_weight_bytes_scale_with_steps(self, tiny_lstm):
        per_batch = tiny_lstm.weight_bytes_per_batch()
        static = tiny_lstm.total_weights
        assert per_batch == 5 * static  # every layer re-read per step

    def test_intensity_equals_batch_for_fc_models(self, tiny_mlp):
        assert tiny_mlp.ops_per_weight_byte() == tiny_mlp.batch_size
        assert tiny_mlp.ops_per_weight_byte(dtype_bytes=4) == pytest.approx(
            tiny_mlp.batch_size / 4
        )

    def test_steps_per_example(self, tiny_mlp, tiny_lstm):
        assert tiny_mlp.steps_per_example == 1
        assert tiny_lstm.steps_per_example == 5
        assert tiny_lstm.inferences_per_batch == 20

    def test_residual_validation(self):
        layers = (
            FullyConnected("a", 8, 8),
            FullyConnected("b", 8, 8),
        )
        Model("ok", layers, (8,), 2, residual_sources={1: -1})
        with pytest.raises(ShapeError):
            Model("bad-order", layers, (8,), 2, residual_sources={0: 1})
        bad = (FullyConnected("a", 8, 4), FullyConnected("b", 4, 8))
        with pytest.raises(ShapeError):
            Model("bad-shape", bad, (8,), 2, residual_sources={0: -1})

    def test_empty_model_rejected(self):
        with pytest.raises(ShapeError):
            Model("empty", (), (8,), 2)

    def test_bad_batch_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            Model("m", tiny_mlp.layers, (20,), 0)

    def test_incompatible_layers_rejected(self):
        layers = (FullyConnected("a", 8, 4), FullyConnected("b", 8, 4))
        with pytest.raises(ShapeError):
            infer_shapes(layers, (8,))

    def test_summary_mentions_essentials(self, tiny_mlp):
        text = tiny_mlp.summary()
        assert "tiny_mlp" in text
        assert "batch 5" in text

    def test_nonlinearities_listed(self, tiny_lstm):
        names = tiny_lstm.nonlinearities()
        assert "sigmoid" in names and "tanh" in names

    def test_vector_elements_resolved(self, tiny_lstm):
        total = tiny_lstm.vector_elements_per_example()
        # two cells (9 passes x hidden x steps) + tanh over (5, 16) + proj 0
        assert total == 5 * 9 * 16 * 2 + 5 * 16
