"""Shared fixtures: small functional models and cached paper workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.driver import TPUDriver
from repro.core.device import ExecutionResult, TPUDevice
from repro.isa.instructions import Halt, MatrixMultiply, ReadWeights
from repro.isa.program import TileSpec, TPUProgram
from repro.nn.graph import Model
from repro.nn.layers import (
    Activation,
    Conv2D,
    FullyConnected,
    LSTMCell,
    Pooling,
    VectorOp,
)
from repro.nn.reference import ReferenceExecutor, initialize_weights, random_input
from repro.nn.workloads import paper_workloads
from tests import oracles


@pytest.fixture(scope="session")
def workloads():
    return paper_workloads()


@pytest.fixture(scope="session")
def driver():
    return TPUDriver()


@pytest.fixture(scope="session")
def profiles(workloads, driver):
    """Timing results for all six apps (compiled once per session)."""
    return {
        name: driver.profile(driver.compile(model))
        for name, model in workloads.items()
    }


@pytest.fixture
def tiny_mlp():
    return Model(
        name="tiny_mlp",
        layers=(
            FullyConnected("a", 20, 40),
            FullyConnected("b", 40, 40, activation=Activation.SIGMOID),
            FullyConnected("c", 40, 8),
        ),
        input_shape=(20,),
        batch_size=5,
    )


@pytest.fixture
def tiny_cnn():
    return Model(
        name="tiny_cnn",
        layers=(
            Conv2D("c0", 8, 16, kernel=3, input_hw=(8, 8)),
            Conv2D("c1", 16, 16, kernel=3, input_hw=(8, 8)),
            Conv2D("c2", 16, 16, kernel=3, input_hw=(8, 8)),
            Pooling("p0", window=2, stride=2),
            FullyConnected("f0", 4 * 4 * 16, 32),
            FullyConnected("f1", 32, 10),
        ),
        input_shape=(8, 8, 8),
        batch_size=6,
        residual_sources={2: 0},
    )


@pytest.fixture
def tiny_lstm():
    return Model(
        name="tiny_lstm",
        layers=(
            LSTMCell("l0", 12, 16, steps=5),
            VectorOp("v0", op=Activation.TANH),
            LSTMCell("l1", 16, 16, steps=5),
            FullyConnected("pr", 16, 16, steps=5),
        ),
        input_shape=(5, 12),
        batch_size=4,
    )


def functional_pair(model: Model, seed: int = 3):
    """(reference int8 output, device int8 output) for a model."""
    weights = initialize_weights(model, seed=seed)
    executor = ReferenceExecutor(model, weights)
    x = random_input(model, seed=seed + 4)
    params = executor.calibrate(x)
    ref = executor.run_quantized(x, params)
    drv = TPUDriver()
    compiled = drv.compile(model, params=params)
    out, result = drv.run(compiled, x)
    return np.asarray(ref).reshape(np.asarray(out).shape), out, result


def one_tile_program(
    tile: TileSpec,
    fetch: int | None = None,
    rows: int = 1,
    weight_bits: int = 8,
    activation_bits: int = 8,
) -> TPUProgram:
    """Fetch a weight tile (``tile``'s own id unless ``fetch`` names
    another) and stream ``rows`` rows through it in one matmul."""
    return TPUProgram(
        name="one-tile",
        instructions=(
            ReadWeights(tile_id=tile.tile_id if fetch is None else fetch),
            MatrixMultiply(ub_row=0, acc_row=0, rows=rows, accumulate=False,
                           load_new_tile=True, weight_bits=weight_bits,
                           activation_bits=activation_bits),
            Halt(),
        ),
        tiles={tile.tile_id: tile}, scales=(), host_buffers={}, batch_size=1,
    )


def timing_run(program: TPUProgram) -> ExecutionResult:
    """The device's timing run of ``program``, which must equal the
    per-instruction oracle's."""
    result = TPUDevice().run(program)
    assert result == oracles.PerInstructionRun(TPUDevice(), program).execute()
    return result
