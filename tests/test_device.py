"""Device tests: functional equivalence, timing behaviour, and parity
with the per-instruction oracle."""

import dataclasses
import re

import numpy as np
import pytest

from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import NO_DEPS
from repro.core.config import TPU_V1, TPUConfig
from repro.core.device import TPUDevice
from repro.isa import assemble, decode_program, disassemble, encode_program
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    InterruptHost,
    MatrixMultiply,
    Nop,
    ReadHostMemory,
    ReadWeights,
    Sync,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    pack_pooling_config,
)
from repro.isa.program import TileSpec, TPUProgram
from repro.nn.graph import Model
from repro.nn.layers import Activation
from repro.nn.quantization import quantize
from repro.nn.reference import ReferenceExecutor, initialize_weights, random_input
from repro.perfmodel.tpu_prime import PRIME_MEMORY_FACTOR
from tests import oracles
from tests.conftest import functional_pair

#: The Section 7 study's TPU': GDDR5 Weight Memory, everything else v1.
TPU_PRIME = TPU_V1.scaled(memory=PRIME_MEMORY_FACTOR)


class TestFunctionalEquivalence:
    """The device's int8 output must equal the quantized reference."""

    def test_mlp_bit_exact(self, tiny_mlp):
        ref, out, _result = functional_pair(tiny_mlp)
        assert np.array_equal(ref, out)

    def test_cnn_with_pool_and_residual_bit_exact(self, tiny_cnn):
        ref, out, _result = functional_pair(tiny_cnn)
        assert np.array_equal(ref, out)

    def test_lstm_stack_bit_exact(self, tiny_lstm):
        ref, out, _result = functional_pair(tiny_lstm)
        assert np.array_equal(ref, out)

    def test_multiple_seeds_stay_exact(self, tiny_mlp):
        for seed in (11, 23, 77):
            ref, out, _result = functional_pair(tiny_mlp, seed=seed)
            assert np.array_equal(ref, out)

    def test_output_shape_roundtrip_sequence(self, tiny_lstm):
        ref, out, _result = functional_pair(tiny_lstm)
        assert out.shape == (4, 5, 16)

    def test_run_requires_params(self, tiny_mlp, driver):
        compiled = driver.compile(tiny_mlp)
        with pytest.raises(ValueError):
            driver.run(compiled, np.zeros((5, 20), dtype=np.float32))

    def test_run_checks_batch(self, tiny_mlp):
        drv = TPUDriver()
        compiled = drv.compile_functional(tiny_mlp, seed=1)
        with pytest.raises(ValueError):
            drv.run(compiled, np.zeros((3, 20), dtype=np.float32))


class TestTimingBehaviour:
    def test_taxonomy_partitions_total(self, profiles):
        for name, result in profiles.items():
            b = result.breakdown
            total = b.active + b.weight_stall + b.weight_shift + b.non_matrix
            assert total == pytest.approx(b.total, rel=1e-9), name

    def test_useful_bounded_by_active(self, profiles):
        for result in profiles.values():
            b = result.breakdown
            assert b.useful_mac_weighted <= b.active + 1e-9

    def test_memory_bound_apps_are_weight_stalled(self, profiles):
        for name in ("mlp0", "mlp1", "lstm0", "lstm1"):
            b = profiles[name].breakdown
            assert b.weight_stall_fraction > 0.4, name
            assert b.active_fraction < 0.25, name

    def test_cnn0_is_compute_bound(self, profiles):
        b = profiles["cnn0"].breakdown
        assert b.active_fraction > 0.6
        assert b.weight_stall_fraction < 0.1

    def test_cnn1_half_macs_unused(self, profiles):
        b = profiles["cnn1"].breakdown
        # Shallow feature depths leave a large unused-MAC share.
        assert b.unused_mac_fraction > 0.2

    def test_tops_ordering_matches_paper(self, profiles):
        tops = {name: r.tera_ops for name, r in profiles.items()}
        assert tops["cnn0"] > tops["cnn1"] > tops["mlp0"] > tops["lstm0"]
        assert tops["cnn0"] < 92.0  # never above peak

    def test_mlp0_tops_band(self, profiles):
        # Paper: 12.3 TOPS.  Memory-bound at intensity 200.
        assert profiles["mlp0"].tera_ops == pytest.approx(12.3, rel=0.25)

    def test_faster_memory_speeds_up_memory_bound_apps(self, workloads):
        fast = TPUDriver(TPU_V1.scaled(memory=4.0))
        base = TPUDriver()
        model = workloads["mlp1"]
        base_s = base.profile(base.compile(model)).seconds
        fast_s = fast.profile(fast.compile(model)).seconds
        assert base_s / fast_s > 2.5

    def test_faster_clock_barely_helps_mlp(self, workloads):
        fast = TPUDriver(TPU_V1.scaled(clock=4.0))
        base = TPUDriver()
        model = workloads["mlp1"]
        base_s = base.profile(base.compile(model)).seconds
        fast_s = fast.profile(fast.compile(model)).seconds
        assert base_s / fast_s < 1.3

    def test_four_deep_weight_fifo_is_ample(self, workloads):
        # The DRAM stream bounds memory-bound MLP0, so the 4-tile Weight
        # FIFO already decouples it: no slower than 1 deep, near 8 deep.
        seconds = {}
        for depth in (1, 4, 8):
            driver = TPUDriver(dataclasses.replace(TPU_V1, weight_fifo_tiles=depth))
            seconds[depth] = driver.profile(driver.compile(workloads["mlp0"])).seconds
        assert seconds[4] <= seconds[1] * 1.01
        assert abs(seconds[4] - seconds[8]) / seconds[4] < 0.05

    def test_instruction_counters(self, profiles, workloads, driver):
        compiled = driver.compile(workloads["mlp1"])
        result = profiles["mlp1"]
        counts = compiled.program.instruction_counts()
        assert result.counters["matmul_instructions"] == counts["MATRIX_MULTIPLY"]
        assert result.counters["weight_tiles_loaded"] == counts["READ_WEIGHTS"]

    def test_weight_bytes_counter_matches_compiler(self, profiles, workloads, driver):
        """``weight_bytes_read`` over each compiled Read_Weights stream,
        against the per-instruction oracle's count of the same program."""
        for name, model in workloads.items():
            program = driver.compile(model).program
            oracle = oracles.PerInstructionRun(TPUDevice(), program).execute()
            assert profiles[name].counters["weight_bytes_read"] == (
                oracle.counters["weight_bytes_read"]
            ), name

    def test_device_rejects_scaled_matrix(self):
        with pytest.raises(NotImplementedError):
            TPUDevice(TPU_V1.scaled(matrix=2))

    def test_sequential_fallback_without_deps(self):
        """Hand-assembled programs (no dep sidecar) still execute."""
        from repro.isa.instructions import Halt, Nop
        from repro.isa.program import TPUProgram

        program = TPUProgram(
            name="nops",
            instructions=(Nop(), Nop(), Halt()),
            tiles={},
            scales=(),
            host_buffers={},
            batch_size=1,
        )
        result = TPUDevice().run(program)
        assert result.counters["nop_instructions"] == 2

    def test_sidecar_must_match_the_instruction_stream(self, workloads, driver):
        """A sidecar one entry short or one entry long is refused by name."""
        program = driver.compile(workloads["mlp1"]).program
        deps = program.metadata["deps"]
        count = len(program.instructions)
        assert len(deps) == count
        for wrong in (deps[:-1], deps + (NO_DEPS,)):
            bad = dataclasses.replace(program, metadata={**program.metadata, "deps": wrong})
            message = (
                f"program 'mlp1': dependency sidecar has {len(wrong)} entries "
                f"for {count} instructions"
            )
            with pytest.raises(ValueError, match=re.escape(message)):
                TPUDevice().run(bad)

    def test_sidecar_tokens_must_be_non_negative(self, workloads, driver):
        """A negative token would index another token's scoreboard slot."""
        program = driver.compile(workloads["mlp1"]).program
        deps = list(program.metadata["deps"])
        index = next(i for i, (reads, _, _) in enumerate(deps) if reads)
        reads, writes, war = deps[index]
        deps[index] = ((-1,) + reads[1:], writes, war)
        bad = dataclasses.replace(
            program, metadata={**program.metadata, "deps": tuple(deps)}
        )
        with pytest.raises(ValueError, match="program 'mlp1'.*negative token -1"):
            TPUDevice().run(bad)

    def test_ips_and_tops_properties(self, profiles):
        r = profiles["mlp0"]
        assert r.ips == pytest.approx(200 / r.seconds)
        assert r.tera_ops == pytest.approx(2 * r.useful_macs / r.seconds / 1e12)


class TestHostModel:
    def test_host_fraction_bands(self, workloads, driver, profiles):
        # Table 5 shape: MLP1 has the largest host share; LSTMs small.
        fractions = {
            name: driver.host_fraction(driver.compile(model), profiles[name])
            for name, model in workloads.items()
        }
        assert fractions["mlp1"] == max(fractions.values())
        assert fractions["mlp1"] > 0.3
        assert 0.05 < fractions["mlp0"] < 0.5
        assert fractions["lstm0"] < 0.2

    def test_batch_seconds_adds_host(self, workloads, driver, profiles):
        compiled = driver.compile(workloads["mlp0"])
        total = driver.batch_seconds(compiled, profiles["mlp0"])
        assert total > profiles["mlp0"].seconds

    def test_mlp0_ips_matches_paper_band(self, workloads, driver, profiles):
        # Paper: 225,000 IPS at batch 200 including host overhead.
        compiled = driver.compile(workloads["mlp0"])
        ips = driver.ips(compiled, profiles["mlp0"])
        assert 120_000 < ips < 400_000

    def test_host_overhead_limits_mlp1_ips(self, workloads):
        # Table 4's note: max TPU throughput is host-limited, so MLP1's
        # IPS falls as the per-batch host cost grows.
        ips = {}
        for factor in (0.5, 1.0, 2.0):
            config = dataclasses.replace(
                TPU_V1, host_overhead_s=TPU_V1.host_overhead_s * factor
            )
            driver = TPUDriver(config)
            compiled = driver.compile(workloads["mlp1"])
            ips[factor] = driver.ips(compiled, driver.profile(compiled))
        assert ips[0.5] > ips[1.0] > ips[2.0]


def _assert_identical(result, reference, label):
    """Cycles, seconds, the breakdown, and every counter's value and type."""
    assert result.cycles == reference.cycles, label
    assert result.seconds == reference.seconds, label
    assert dataclasses.asdict(result.breakdown) == dataclasses.asdict(
        reference.breakdown
    ), label
    assert result.counters == reference.counters, label
    assert {k: type(v) for k, v in result.counters.items()} == {
        k: type(v) for k, v in reference.counters.items()
    }, label


def _hand_assembled(seed: int) -> tuple[TPUProgram, TPUConfig]:
    """A random well-formed program and the config to run it on.

    Most programs carry no dependency sidecar, so the device chains them
    serially; every fourth carries a random one.  Fetch bursts run deeper
    than the Weight FIFO, tiles are static or dynamic, and a third of the
    streams round-trip through the binary encoding or the assembler.
    """
    rng = np.random.default_rng(seed)

    def draw(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi))

    tiles = {
        tile_id: TileSpec(
            tile_id, rows=draw(1, 257), cols=draw(1, 257), dynamic=bool(rng.random() < 0.3)
        )
        for tile_id in range(8)
    }
    instructions = []
    queued = 0  # tiles fetched and not yet shifted in
    for _ in range(draw(1, 48)):
        pick = draw(0, 13)
        if pick == 0:
            burst = draw(1, 9)
            instructions += [ReadWeights(tile_id=draw(0, 8)) for _ in range(burst)]
            queued += burst
        elif pick in (1, 2):
            load = queued > 0 and rng.random() < 0.8
            queued -= load
            instructions.append(MatrixMultiply(
                ub_row=draw(0, 4096), acc_row=draw(0, 4096), rows=draw(1, 400),
                accumulate=bool(rng.random() < 0.5), load_new_tile=load,
                weight_bits=int(rng.choice((8, 16))),
                activation_bits=int(rng.choice((8, 16))),
                convolve=bool(rng.random() < 0.3),
            ))
        elif pick == 3:
            instructions.append(Activate(
                acc_row=draw(0, 4096), ub_row=draw(0, 4096), rows=draw(1, 300),
                lanes=draw(1, 257), function=list(Activation)[draw(0, len(Activation))],
                scale_id=0,
            ))
        elif pick == 4:
            instructions.append(VectorInstruction(
                kind=int(rng.choice(VectorKind.ALL)), src_row=draw(0, 4096),
                dst_row=draw(0, 4096), rows=draw(1, 64), lanes=draw(1, 257), scale_id=0,
            ))
        elif pick == 5:
            instructions.append(
                ReadHostMemory(buffer_id=0, ub_row=draw(0, 4096), rows=draw(0, 200))
            )
        elif pick == 6:
            instructions.append(
                WriteHostMemory(buffer_id=1, ub_row=draw(0, 4096), rows=draw(0, 200))
            )
        elif pick == 7:
            key = (Configure.KEY_POOLING, Configure.KEY_CONV, Configure.KEY_MODE)[draw(0, 3)]
            geometry = pack_pooling_config(
                draw(1, 5), draw(1, 4), draw(1, 64), draw(1, 64), draw(1, 256)
            )
            instructions.append(Configure(key=key, value=geometry))
        else:
            control = (Sync(), SyncHost(), Nop(), DebugTag(tag=seed), InterruptHost())
            instructions.append(control[pick - 8])
    if rng.random() < 0.1:
        instructions.insert(draw(0, len(instructions) + 1), Halt())  # ends the stream early
    instructions.append(Halt())
    if seed % 3 == 1:
        instructions = decode_program(encode_program(instructions))
    elif seed % 3 == 2:
        instructions = assemble(disassemble(instructions))
    metadata = {}
    if seed % 4 == 0:
        metadata["deps"] = tuple(
            (
                tuple(draw(0, index) for _ in range(draw(0, 3))) if index else (),
                (index,) if rng.random() < 0.8 else (),
                tuple(draw(0, index) for _ in range(draw(0, 2))) if index else (),
            )
            for index in range(len(instructions))
        )
    program = TPUProgram(
        name=f"hand-{seed}", instructions=tuple(instructions), tiles=tiles, scales=(),
        host_buffers={}, batch_size=1, metadata=metadata,
    )
    config = dataclasses.replace(
        TPU_PRIME if seed % 2 else TPU_V1, weight_fifo_tiles=draw(1, 7)
    )
    return program, config


def _deepest_prefetch(instructions) -> int:
    """The most tiles a stream fetches ahead of the matmuls that shift them in."""
    depth = deepest = 0
    for instr in instructions:
        if isinstance(instr, Halt):
            break
        depth += isinstance(instr, ReadWeights)
        depth -= isinstance(instr, MatrixMultiply) and instr.load_new_tile
        deepest = max(deepest, depth)
    return deepest


def _functional_program(model: Model, seed: int = 3):
    """A model compiled with quantized parameters, and its input codes."""
    executor = ReferenceExecutor(model, initialize_weights(model, seed=seed))
    x = random_input(model, seed=seed + 4)
    params = executor.calibrate(x)
    compiled = TPUDriver().compile(model, params=params)
    return compiled.program, quantize(np.asarray(x, dtype=np.float64), params.input_scale)


#: Counters only a functional run can charge: they count moved data.
DATA_COUNTERS = ("ub_bytes_read", "ub_bytes_written", "acc_rows_written")


class TestOracleParity:
    """The timing walk against ``PerInstructionRun`` in tests/oracles.py."""

    def test_hand_assembled_programs_match_the_oracle(self):
        kinds, vector_kinds, over_deep, dynamic = set(), set(), 0, 0
        for seed in range(1200):
            program, config = _hand_assembled(seed)
            result = TPUDevice(config).run(program)
            oracle = oracles.PerInstructionRun(TPUDevice(config), program)
            _assert_identical(result, oracle.execute(), f"seed {seed}")
            assert oracle.walked > 0, seed
            kinds.update(type(instr) for instr in program.instructions)
            vector_kinds.update(
                i.kind for i in program.instructions if isinstance(i, VectorInstruction)
            )
            over_deep += _deepest_prefetch(program.instructions) > config.weight_fifo_tiles
            dynamic += any(
                isinstance(i, ReadWeights) and program.tiles[i.tile_id].dynamic
                for i in program.instructions
            )
        assert kinds == {
            ReadHostMemory, WriteHostMemory, ReadWeights, MatrixMultiply, Activate,
            VectorInstruction, Sync, SyncHost, Configure, InterruptHost, DebugTag, Nop, Halt,
        }
        assert vector_kinds == set(VectorKind.ALL)
        assert over_deep > 100 and dynamic > 100, (over_deep, dynamic)

    @pytest.mark.parametrize("name", ["tiny_mlp", "tiny_cnn", "tiny_lstm"])
    def test_functional_runs_match_the_oracle(self, name, request):
        program, codes = _functional_program(request.getfixturevalue(name))
        result = TPUDevice(functional=True).run(program, host_input=codes)
        oracle = oracles.PerInstructionRun(TPUDevice(functional=True), program, codes)
        reference = oracle.execute()
        assert oracle.walked == len(program.instructions)
        _assert_identical(result, reference, name)
        assert all(result.counters[key] > 0 for key in DATA_COUNTERS), name
        assert result.output.dtype == reference.output.dtype
        assert result.output.shape == reference.output.shape
        assert result.output.tobytes() == reference.output.tobytes()

    @pytest.mark.parametrize("name", ["tiny_mlp", "tiny_cnn", "tiny_lstm"])
    def test_functional_run_is_the_timing_run_plus_data(self, name, request):
        program, codes = _functional_program(request.getfixturevalue(name))
        functional = TPUDevice(functional=True).run(program, host_input=codes)
        timing = TPUDevice().run(program)
        assert timing.output is None and functional.output is not None
        assert all(timing.counters[key] == 0 for key in DATA_COUNTERS)
        data_free = dataclasses.replace(
            functional,
            output=None,
            counters={**functional.counters, **{key: 0 for key in DATA_COUNTERS}},
        )
        assert data_free == timing
        assert {k: type(v) for k, v in data_free.counters.items()} == {
            k: type(v) for k, v in timing.counters.items()
        }


class TestRunState:
    """A run reads its program and stores nothing on it."""

    def test_runs_leave_the_program_untouched(self, workloads):
        program = TPUDriver().compile(workloads["mlp0"]).program
        state, metadata = dict(vars(program)), dict(program.metadata)
        first = TPUDevice(TPU_V1).run(program)
        prime = TPUDevice(TPU_PRIME).run(program)
        again = TPUDevice(TPU_V1).run(program)
        assert vars(program) == state and program.metadata == metadata
        assert (round(prime.cycles), round(first.cycles)) == (158_289, 546_726)

        fresh = TPUDriver().compile(workloads["mlp0"]).program
        assert fresh is not program
        reference = TPUDevice(TPU_V1).run(fresh)
        _assert_identical(first, reference, "TPU_V1")
        _assert_identical(again, reference, "TPU_V1 after TPU'")
