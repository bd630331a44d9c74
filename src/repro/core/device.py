"""The TPU device: a 4-stage-CISC, multi-engine timing + functional model.

Execution model (Section 2): instructions arrive in order and are
dispatched to their engine -- the matrix unit, the vector/activation
pipeline, the weight-fetch engine (decoupled access/execute), or one of
the two DMA directions.  Engines run concurrently; the compiler's
dependency sidecar (read/write/WAR tokens) is the scoreboard that
serializes true hazards, which is exactly the "delay slot" behaviour the
paper describes between a layer's activations and the next layer's
matmuls.

Every cycle of the run is attributed to exactly one Table 3 category:

* **array active** -- the matrix unit is streaming rows;
* **weight-load stall** -- the matrix unit waits for a tile still in
  flight from Weight Memory;
* **weight shift** -- the 256-cycle shift of a tile into the array that
  double buffering failed to hide;
* **non-matrix** -- everything else (activation, pooling, reformatting,
  DMA, sync), with RAW-hazard and PCIe-input waits recorded as the
  overlapping sub-counters of rows 7-8.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.accumulators import AccumulatorFile
from repro.core.activation_unit import ActivationUnit
from repro.core.config import TPUConfig, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.dma import DMAEngine
from repro.core.matrix_unit import MatrixUnit, speed_factor
from repro.core.weight_memory import WeightMemory
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    InterruptHost,
    MatrixMultiply,
    Nop,
    ROW_BYTES,
    ReadHostMemory,
    ReadWeights,
    SETUP_BANK_STRIDE,
    SETUP_BASE,
    Sync,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    unpack_pooling_config,
)
from repro.isa.program import TileSpec, TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import apply_activation, quantize
from repro.nn.reference import im2col, max_pool


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one program (one batch)."""

    program_name: str
    batch_size: int
    cycles: float
    seconds: float
    breakdown: CycleBreakdown
    counters: dict[str, float]
    output: np.ndarray | None = None

    @property
    def ips(self) -> float:
        """Inferences per second, device time only (no host share)."""
        return self.batch_size / self.seconds

    @property
    def useful_macs(self) -> float:
        return self.counters.get("macs_issued", 0.0)

    @property
    def tera_ops(self) -> float:
        """Useful TeraOps/s (2 ops per MAC), the Table 3 row-9 measure."""
        return 2.0 * self.useful_macs / self.seconds / 1e12


@dataclass
class _Tensor:
    base_row: int
    rows: int
    width: int
    data: np.ndarray | None = None  # allocated lazily in functional mode


class TPUDevice:
    """Executes TPUPrograms; cycle-approximate and optionally functional."""

    def __init__(
        self,
        config: TPUConfig = TPU_V1,
        functional: bool = False,
        activation_mode: str = "exact",
    ) -> None:
        if config.matrix_dim != ROW_BYTES:
            raise NotImplementedError(
                "the device simulator models the 256-wide datapath; use "
                "repro.perfmodel for scaled designs (as the paper did)"
            )
        self.config = config
        self.functional = functional
        self.activation_unit = ActivationUnit(config.activation_lanes, mode=activation_mode)

    # ------------------------------------------------------------------
    def run(self, program: TPUProgram, host_input: np.ndarray | None = None) -> ExecutionResult:
        """Execute one batch of ``program``.

        Every run takes its cycles, breakdown and counters from the
        program's timing plan.  In functional mode ``host_input`` must
        hold the quantized input codes shaped (batch, *input_shape); an
        untimed pass moves the data, and the result carries the output
        codes.  In timing mode data is ignored entirely.
        """
        if not (obs.TRACER.enabled or obs.REGISTRY.enabled):
            return self._execute(program, host_input)
        start = time.perf_counter()
        result = self._execute(program, host_input)
        _record_run(self, result, time.perf_counter() - start)
        return result

    def _execute(self, program: TPUProgram, host_input: np.ndarray | None) -> ExecutionResult:
        counters, output = CounterBank(), None
        if self.functional:
            # The data pass goes first: it stops at the program's first bad
            # instruction, whether the fault is in its data or its timing.
            data = _DataPass(self, program, host_input)
            data.execute()
            counters, output = data.counters, data.output
        plan = _timing_plan_for(program, self.config)
        return _execute_plan(plan, program, self.config, counters, output)


def _record_run(device: "TPUDevice", result: ExecutionResult, wall_s: float) -> None:
    """Observability for one program replay (only called when enabled).

    The span carries the simulated outcome (cycles, simulated ms) against
    real elapsed time; the metrics mirror the paper's per-unit counters --
    MXU active / weight-path stall / shift / non-matrix cycle totals plus
    the DMA and Unified Buffer byte counters -- accumulated across runs.
    """
    b = result.breakdown
    if obs.TRACER.enabled:
        now = obs.TRACER.now()
        obs.TRACER.record_wall(
            f"device:{result.program_name}", now - wall_s * 1e6, wall_s * 1e6,
            cat="device",
            batch=result.batch_size,
            cycles=result.cycles,
            sim_ms=result.seconds * 1e3,
            mxu_active_frac=round(b.active_fraction, 4),
            functional=device.functional,
        )
    if obs.REGISTRY.enabled:
        obs.counter("device.runs").inc()
        obs.counter("device.cycles.total").inc(b.total)
        obs.counter("device.cycles.mxu_active").inc(b.active)
        obs.counter("device.cycles.weight_stall").inc(b.weight_stall)
        obs.counter("device.cycles.weight_shift").inc(b.weight_shift)
        obs.counter("device.cycles.non_matrix").inc(b.non_matrix)
        counters = result.counters
        for metric, key in (
            ("device.cycles.dma_in", "dma_in_cycles"),
            ("device.cycles.dma_out", "dma_out_cycles"),
            ("device.bytes.pcie_in", "pcie_bytes_in"),
            ("device.bytes.pcie_out", "pcie_bytes_out"),
            ("device.bytes.weight_read", "weight_bytes_read"),
            ("device.bytes.ub_read", "ub_bytes_read"),
            ("device.bytes.ub_written", "ub_bytes_written"),
            ("device.macs_issued", "macs_issued"),
        ):
            value = counters.get(key)
            if value:
                obs.counter(metric).inc(value)


# ----------------------------------------------------------------------
# timing plan
# ----------------------------------------------------------------------
# Everything about an instruction that does not depend on the schedule --
# its engine, duration, weight-tile pairing, and counter increments -- is
# fixed at compile time.  The plan hoists all of it out of the run loop in
# one pass per program: per-instruction accounting is batched onto numpy
# arrays and reduced once (integer sums are exact, so the totals equal
# one-at-a-time adds), and the run loop that remains touches only the
# scoreboard and engine clocks.  The plan is the device's only timing
# model: every run takes it, and a functional run adds an untimed
# :class:`_DataPass`.  The per-instruction loop it replaced lives on as
# the test oracle ``PerInstructionRun`` in ``tests/oracles.py``.

_OP_RW, _OP_MM, _OP_ACT, _OP_VEC, _OP_DIN, _OP_DOUT, _OP_SYNC, _OP_CTRL = range(8)


@dataclass
class _TimingPlan:
    """Schedule-independent precomputation for one program."""

    ops: list[tuple]
    counter_totals: list[tuple[str, float]]
    active: float
    useful: float


def _pop_tile(program: TPUProgram, fifo: deque[int]) -> tuple[int, TileSpec]:
    """The Weight FIFO's head tile, which a ``load_new_tile`` matmul shifts in."""
    if not fifo:
        raise RuntimeError("MatrixMultiply with load_new_tile but empty Weight FIFO")
    tile_id = fifo.popleft()
    return tile_id, program.tiles[tile_id]


def _build_timing_plan(program: TPUProgram, config: TPUConfig) -> _TimingPlan:
    """One static pass over the instruction stream.

    Dependencies come from the compiler's sidecar.  A program without
    one -- hand-assembled, or built with :func:`repro.isa.assemble` or
    :func:`repro.isa.decode_program` -- runs as a serial chain: each
    instruction waits for the one before it, except a weight fetch,
    which waits only for the DRAM port and a free FIFO slot.  A
    malformed stream raises: a sidecar whose length is not the
    instruction count, an instruction the device does not know, a
    ``load_new_tile`` matmul with the Weight FIFO empty, or a tile
    missing from ``program.tiles``.  A sidecar entry is the compiler's
    ``(reads, writes, war)`` token-tuple triple.
    """
    deps = program.metadata.get("deps")
    if deps is not None and len(deps) != len(program.instructions):
        raise ValueError(
            f"program {program.name!r}: dependency sidecar has {len(deps)} "
            f"entries for {len(program.instructions)} instructions"
        )
    tile_load_cycles = config.tile_load_cycles()
    tile_bytes = config.tile_bytes
    lanes = config.activation_lanes
    clock = config.clock_hz
    dma_seconds = DMAEngine(config.pcie_bandwidth).transfer_seconds
    dim2 = config.matrix_dim * config.matrix_dim

    ops: list[tuple] = []
    # Batched integer accounting: one row per instruction of that type,
    # reduced with exact int64 sums after the walk.
    mm_rows: list[int] = []
    mm_macs: list[int] = []
    mm_convolve = 0
    rw_bytes: list[int] = []
    act_cycles: list[int] = []
    pool_cycles: list[int] = []
    din_bytes: list[int] = []
    dout_bytes: list[int] = []
    n_issued = n_sync = n_nop = n_activate = 0
    # Ordered float accumulation: fill-weighted active time and DMA cycle
    # conversions are not integers, so they add in program order.  The
    # DMA totals start as int 0, like a counter, so they turn float with
    # the first transfer, even an empty one.
    active = 0.0
    useful = 0.0
    din_cycles = dout_cycles = 0
    pool_config: dict[str, int] | None = None
    fifo_ids: deque[int] = deque()

    for index, instr in enumerate(program.instructions):
        n_issued += 1
        if deps is not None:
            reads, writes, war = deps[index]
        else:
            reads = war = () if isinstance(instr, ReadWeights) else (index - 1,)
            writes = (index,)
        if isinstance(instr, ReadWeights):
            # Static tiles stream the full padded tile; dynamic tiles
            # (attention K^T/V staged through Weight Memory) move only
            # their packed bytes, and wait for the activations they stage.
            spec = program.tiles.get(instr.tile_id)
            if spec is not None and spec.dynamic:
                nbytes = spec.rows * spec.cols
                load_cycles = tile_load_cycles * nbytes / tile_bytes
            else:
                nbytes = tile_bytes
                load_cycles = tile_load_cycles
            rw_bytes.append(nbytes)
            fifo_ids.append(instr.tile_id)
            ops.append((_OP_RW, load_cycles, reads, writes))
        elif isinstance(instr, MatrixMultiply):
            spec = _pop_tile(program, fifo_ids)[1] if instr.load_new_tile else None
            duration = instr.rows * speed_factor(
                instr.weight_bits, instr.activation_bits
            )
            active += duration
            fill = (spec.rows * spec.cols) / dim2 if spec is not None else 1.0
            useful += duration * fill
            mm_rows.append(instr.rows)
            mm_macs.append(
                instr.rows * (spec.rows * spec.cols if spec is not None else config.macs)
            )
            mm_convolve += 1 if instr.convolve else 0
            ops.append(
                (_OP_MM, duration, reads, war, writes, instr.load_new_tile)
            )
        elif isinstance(instr, Activate):
            duration = -(-(instr.rows * instr.lanes) // lanes)
            n_activate += 1
            act_cycles.append(duration)
            ops.append((_OP_ACT, duration, reads, war, writes))
        elif isinstance(instr, VectorInstruction):
            elements = instr.rows * instr.lanes * VectorKind.PASSES[instr.kind]
            pooling = instr.kind == VectorKind.POOL
            if pooling and pool_config:
                elements *= pool_config["window"] ** 2
            duration = -(-elements // lanes)
            (pool_cycles if pooling else act_cycles).append(duration)
            # Patch streaming runs on the floorplan's Systolic Data Setup
            # block, concurrent with the activation pipeline.
            unit = "setup" if instr.kind == VectorKind.IM2COL else "vector"
            ops.append((_OP_VEC, duration, unit, reads, war, writes))
        elif isinstance(instr, ReadHostMemory):
            nbytes = instr.rows * ROW_BYTES
            duration = dma_seconds(nbytes) * clock
            din_bytes.append(nbytes)
            din_cycles += duration
            ops.append((_OP_DIN, duration, war, reads, writes))
        elif isinstance(instr, WriteHostMemory):
            nbytes = instr.rows * ROW_BYTES
            duration = dma_seconds(nbytes) * clock
            dout_bytes.append(nbytes)
            dout_cycles += duration
            ops.append((_OP_DOUT, duration, reads, writes))
        elif isinstance(instr, Configure):
            if instr.key == Configure.KEY_POOLING:
                pool_config = unpack_pooling_config(instr.value)
            ops.append((_OP_CTRL, reads, writes))
        elif isinstance(instr, (Sync, SyncHost)):
            n_sync += 1
            ops.append((_OP_SYNC, reads, writes))
        elif isinstance(instr, (DebugTag, Nop, InterruptHost)):
            if isinstance(instr, Nop):
                n_nop += 1
            ops.append((_OP_CTRL, reads, writes))
        elif isinstance(instr, Halt):
            break
        else:
            raise TypeError(f"device cannot execute {type(instr)!r}")

    def isum(values: list[int]) -> int:
        return int(np.asarray(values, dtype=np.int64).sum()) if values else 0

    macs_total = isum(mm_macs)
    totals = [
        ("instructions_issued", n_issued),
        ("read_weights_instructions", len(rw_bytes)),
        ("weight_tiles_loaded", len(rw_bytes)),
        ("weight_bytes_read", isum(rw_bytes)),
        ("macs_issued", macs_total),
        ("ops_committed", 2 * macs_total),
        ("rows_streamed", isum(mm_rows)),
        ("matmul_instructions", len(mm_rows) - mm_convolve),
        ("convolve_instructions", mm_convolve),
        ("activate_instructions", n_activate),
        ("activation_cycles", isum(act_cycles)),
        ("pooling_cycles", isum(pool_cycles)),
        ("read_host_instructions", len(din_bytes)),
        ("pcie_bytes_in", isum(din_bytes)),
        ("dma_in_cycles", din_cycles),
        ("write_host_instructions", len(dout_bytes)),
        ("pcie_bytes_out", isum(dout_bytes)),
        ("dma_out_cycles", dout_cycles),
        ("sync_instructions", n_sync),
        ("nop_instructions", n_nop),
    ]
    return _TimingPlan(
        ops=ops,
        counter_totals=totals,
        active=active,
        useful=useful,
    )


def _timing_plan_for(program: TPUProgram, config: TPUConfig) -> _TimingPlan:
    """The program's cached plan (keyed by config, since durations derive
    from it).  Stored as a plain attribute: it must never leak into the
    program's dataclass fields, equality, or serialized binary."""
    cached = getattr(program, "_timing_plan", None)
    if cached is not None and cached[0] == config:
        return cached[1]
    plan = _build_timing_plan(program, config)
    program._timing_plan = (config, plan)
    return plan


def _execute_plan(
    plan: _TimingPlan,
    program: TPUProgram,
    config: TPUConfig,
    bank: CounterBank,
    output: np.ndarray | None,
) -> ExecutionResult:
    """Run the plan's scoreboard and engine clocks; assemble the result.

    Each op waits for its dependency tokens and its engine, then occupies
    the engine.  A matmul that loads a new tile also waits for the tile's
    fetch and shift, and the breakdown splits its idle time into weight
    stall, weight shift and the RAW/PCIe-input sub-counters.  The plan's
    counter totals are added to ``bank``, which a functional run has
    already charged with its data counters; ``output`` is that run's
    output codes.
    """
    token_write: dict[int, tuple[float, str]] = {}
    token_read: dict[int, float] = {}
    tw_get = token_write.get
    tr_get = token_read.get
    matrix = vector = setup = dma_in = dma_out = dram = control = 0.0
    ready_queue: deque[float] = deque()
    pop_times: list[float] = []
    push_count = 0
    prev_mm_start = 0.0
    weight_stall = weight_shift = raw_stall = input_stall = 0.0
    fifo_depth = config.weight_fifo_tiles
    shift_cycles = config.weight_shift_cycles

    for op in plan.ops:
        code = op[0]
        if code == _OP_MM:
            _, duration, reads, war, writes, load_new = op
            ready = 0.0
            unit = "control"
            for token in reads:
                rec = tw_get(token)
                if rec is not None and rec[0] > ready:
                    ready, unit = rec
            war_ready = 0.0
            for token in war:
                rec = tw_get(token)
                if rec is not None and rec[0] > war_ready:
                    war_ready = rec[0]
                t = tr_get(token, 0.0)
                if t > war_ready:
                    war_ready = t
            matrix_free = matrix
            shift_done = tile_ready = shift_start = 0.0
            if load_new:
                tile_ready = ready_queue.popleft()
                shift_start = max(tile_ready, prev_mm_start)
                pop_times.append(shift_start)
                shift_done = shift_start + shift_cycles
            start = max(matrix_free, shift_done, ready, war_ready)
            idle = start - matrix_free
            if idle > 0:
                stall = 0.0
                shift = 0.0
                if load_new:
                    stall = max(0.0, min(start, tile_ready) - matrix_free)
                    shift = max(
                        0.0,
                        min(start, shift_done)
                        - max(matrix_free, shift_start, tile_ready),
                    )
                weight_stall += stall
                weight_shift += shift
                rest = idle - (stall + shift)
                if rest > 0 and ready >= start - 1e-9:
                    if unit == "dma_in":
                        input_stall += rest
                    else:
                        raw_stall += rest
            end = start + duration
            matrix = end
            prev_mm_start = start
            for token in writes:
                token_write[token] = (end, "matrix")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        elif code == _OP_RW:
            _, load_cycles, reads, writes = op
            # A full FIFO frees a slot when the matmul that pops its
            # oldest tile starts the shift; a fetch issued ahead of that
            # matmul takes the matrix unit's clock instead.
            slot_free = 0.0
            if push_count >= fifo_depth:
                pop_index = push_count - fifo_depth
                slot_free = (
                    pop_times[pop_index] if pop_index < len(pop_times) else matrix
                )
            dep_ready = 0.0
            for token in reads:
                rec = tw_get(token)
                if rec is not None and rec[0] > dep_ready:
                    dep_ready = rec[0]
            end = max(dram, slot_free, dep_ready) + load_cycles
            dram = end
            ready_queue.append(end)
            push_count += 1
            for token in writes:
                token_write[token] = (end, "dram")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        elif code == _OP_ACT or code == _OP_VEC:
            if code == _OP_ACT:
                _, duration, reads, war, writes = op
                unit = "vector"
            else:
                _, duration, unit, reads, war, writes = op
            ready = 0.0
            for token in reads:
                rec = tw_get(token)
                if rec is not None and rec[0] > ready:
                    ready = rec[0]
            war_ready = 0.0
            for token in war:
                rec = tw_get(token)
                if rec is not None and rec[0] > war_ready:
                    war_ready = rec[0]
                t = tr_get(token, 0.0)
                if t > war_ready:
                    war_ready = t
            if unit == "vector":
                end = max(vector, ready, war_ready) + duration
                vector = end
            else:
                end = max(setup, ready, war_ready) + duration
                setup = end
            for token in writes:
                token_write[token] = (end, unit)
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        elif code == _OP_DIN:
            _, duration, war, reads, writes = op
            war_ready = 0.0
            for token in war:
                rec = tw_get(token)
                if rec is not None and rec[0] > war_ready:
                    war_ready = rec[0]
                t = tr_get(token, 0.0)
                if t > war_ready:
                    war_ready = t
            end = max(dma_in, war_ready) + duration
            dma_in = end
            for token in writes:
                token_write[token] = (end, "dma_in")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        elif code == _OP_DOUT:
            _, duration, reads, writes = op
            ready = 0.0
            for token in reads:
                rec = tw_get(token)
                if rec is not None and rec[0] > ready:
                    ready = rec[0]
            end = max(dma_out, ready) + duration
            dma_out = end
            for token in writes:
                token_write[token] = (end, "dma_out")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        elif code == _OP_SYNC:
            _, reads, writes = op
            end = max(matrix, vector, setup, dma_in, dma_out, dram, control)
            control = end
            for token in writes:
                token_write[token] = (end, "control")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end
        else:  # _OP_CTRL
            _, reads, writes = op
            end = control + 1
            control = end
            for token in writes:
                token_write[token] = (end, "control")
            for token in reads:
                if tr_get(token, 0.0) < end:
                    token_read[token] = end

    total = max(matrix, vector, setup, dma_in, dma_out, dram, control)
    total = max(total, 1.0)
    for name, value in plan.counter_totals:
        bank.add(name, value)
    active = plan.active
    bank.add("total_cycles", total)
    bank.add("array_active_cycles", active)
    bank.add("useful_mac_cycles", plan.useful)
    bank.add("weight_stall_cycles", weight_stall)
    bank.add("weight_shift_cycles", weight_shift)
    non_matrix = max(total - active - weight_stall - weight_shift, 0.0)
    bank.add("non_matrix_cycles", non_matrix)
    bank.add("raw_stall_cycles", min(raw_stall, non_matrix))
    bank.add("input_stall_cycles", min(input_stall, non_matrix))
    bank.add("batches_completed", 1)
    breakdown = CycleBreakdown(
        total=total,
        active=active,
        weight_stall=weight_stall,
        weight_shift=weight_shift,
        non_matrix=non_matrix,
        useful_mac_weighted=min(plan.useful, active),
        raw_stall=min(raw_stall, non_matrix),
        input_stall=min(input_stall, non_matrix),
    )
    return ExecutionResult(
        program_name=program.name,
        batch_size=program.batch_size,
        cycles=total,
        seconds=total / config.clock_hz,
        breakdown=breakdown,
        counters=bank.snapshot(),
        output=output,
    )


# ----------------------------------------------------------------------
# functional data pass
# ----------------------------------------------------------------------
class _DataPass:
    """A functional run's data, moved by one untimed pass over the program.

    Holds the Unified Buffer tensors, Weight Memory, the matrix unit and
    the accumulators.  Timing comes from the plan; this pass charges only
    the counters that need the data: ``ub_bytes_read``,
    ``ub_bytes_written`` and ``acc_rows_written``.
    """

    def __init__(
        self, device: TPUDevice, program: TPUProgram, host_input: np.ndarray | None
    ) -> None:
        self.device = device
        self.config = device.config
        self.program = program
        self.host_input = host_input
        self.counters = CounterBank()
        self.tensors: list[_Tensor] = []
        self.tensor_bases: list[int] = []
        self.setup: dict[int, np.ndarray] = {}
        self.cell_state: dict[int, np.ndarray] = {}
        self.pool_config: dict[str, int] | None = None
        self.conv_config: dict[str, int] | None = None
        self.output: np.ndarray | None = None
        self.matrix_unit = MatrixUnit(self.config)
        self.acc = AccumulatorFile(self.config.accumulator_rows, self.config.matrix_dim)
        self._init_memory()

    # ------------------------------------------------------------------
    def _init_memory(self) -> None:
        table = self.program.metadata.get("tensors", {})
        for name, (base_row, rows, width) in sorted(table.items(), key=lambda kv: kv[1][0]):
            self.tensors.append(_Tensor(base_row, rows, width))
        self.tensors.sort(key=lambda t: t.base_row)
        self.tensor_bases = [t.base_row for t in self.tensors]
        self.weight_memory = WeightMemory(
            self.config.weight_dram_bytes, self.config.weight_bandwidth
        )
        for tile_id, spec in self.program.tiles.items():
            if spec.data is None:
                raise ValueError(
                    f"tile {tile_id} carries no data; compile with "
                    f"quantized parameters for functional runs"
                )
            self.weight_memory.store_tile(tile_id, spec.data)

    def _find_tensor(self, row: int) -> tuple[_Tensor, int]:
        idx = bisect_right(self.tensor_bases, row) - 1
        if idx < 0:
            raise KeyError(f"UB row {row} is below every tensor")
        tensor = self.tensors[idx]
        span = tensor.rows * math.ceil(tensor.width / ROW_BYTES)
        if row >= tensor.base_row + span:
            raise KeyError(f"UB row {row} not inside any tensor")
        return tensor, row - tensor.base_row

    def _tensor_array(self, tensor: _Tensor) -> np.ndarray:
        if tensor.data is None:
            tensor.data = np.zeros((tensor.rows, tensor.width), dtype=np.int8)
        return tensor.data

    # ------------------------------------------------------------------
    def execute(self) -> None:
        """Walk the program in order, moving data only.

        Raises at the first bad instruction: a fault in its data, or one
        the timing plan would raise for it.
        """
        fifo_ids: deque[int] = deque()
        for instr in self.program.instructions:
            if isinstance(instr, ReadWeights):
                fifo_ids.append(instr.tile_id)
            elif isinstance(instr, MatrixMultiply):
                spec = None
                if instr.load_new_tile:
                    tile_id, spec = _pop_tile(self.program, fifo_ids)
                    self._install_tile(tile_id)
                self._matmul_functional(instr, spec)
            elif isinstance(instr, Activate):
                self._activate_functional(instr)
            elif isinstance(instr, VectorInstruction):
                self._vector_functional(instr)
            elif isinstance(instr, ReadHostMemory):
                self._dma_in_functional(instr)
            elif isinstance(instr, WriteHostMemory):
                self._dma_out_functional(instr)
            elif isinstance(instr, Configure):
                self._configure(instr)
            elif isinstance(instr, Halt):
                break
            elif not isinstance(instr, (Sync, SyncHost, DebugTag, Nop, InterruptHost)):
                raise TypeError(f"device cannot execute {type(instr)!r}")

    # -- matrix path --------------------------------------------------------
    def _install_tile(self, tile_id: int) -> None:
        data, _seconds = self.weight_memory.read_tile(tile_id)
        self.matrix_unit.install_tile(tile_id, data)

    def _matmul_functional(self, instr: MatrixMultiply, spec) -> None:
        x = self._read_matmul_input(instr, spec.rows if spec else self.config.matrix_dim)
        result = self.matrix_unit.multiply(x)
        self.acc.write(instr.acc_row, result, accumulate=instr.accumulate)
        self.counters.add("acc_rows_written", instr.rows)

    def _read_matmul_input(self, instr: MatrixMultiply, k_ext: int) -> np.ndarray:
        row = instr.ub_row
        if row >= SETUP_BASE:
            bank = (row - SETUP_BASE) // SETUP_BANK_STRIDE
            offset = (row - SETUP_BASE) % SETUP_BANK_STRIDE
            arr = self.setup[bank]
            group = offset // instr.rows
            lo = group * ROW_BYTES
            data = arr[:, lo : lo + k_ext]
        else:
            tensor, rel = self._find_tensor(row)
            arr = self._tensor_array(tensor)
            group = rel // tensor.rows
            r0 = rel % tensor.rows
            lo = group * ROW_BYTES
            data = arr[r0 : r0 + instr.rows, lo : lo + k_ext]
        if data.shape[1] < k_ext:
            padded = np.zeros((data.shape[0], k_ext), dtype=data.dtype)
            padded[:, : data.shape[1]] = data
            data = padded
        self.counters.add("ub_bytes_read", data.shape[0] * ROW_BYTES)
        return data

    def _activate_functional(self, instr: Activate) -> None:
        entry = self.program.scales[instr.scale_id]
        acc_rows = self.acc.read(instr.acc_row, instr.rows)
        codes = self.device.activation_unit.activate(
            acc_rows,
            entry.input_scale,
            entry.weight_scale,
            entry.output_scale,
            instr.function,
        )
        tensor, rel = self._find_tensor(instr.ub_row)
        arr = self._tensor_array(tensor)
        group = rel // tensor.rows
        r0 = rel % tensor.rows
        lo = group * ROW_BYTES
        arr[r0 : r0 + instr.rows, lo : lo + instr.lanes] = codes[:, : instr.lanes]
        self.counters.add("ub_bytes_written", instr.rows * ROW_BYTES)

    # -- vector path ------------------------------------------------------
    def _vector_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        if instr.kind == VectorKind.UNARY:
            self._unary_functional(instr)
        elif instr.kind == VectorKind.LSTM_GATE:
            self._lstm_gate_functional(instr)
        elif instr.kind == VectorKind.RESIDUAL_ADD:
            src_t, _ = self._find_tensor(instr.src_row)
            skip_t, _ = self._find_tensor(instr.aux_id)
            src = self._tensor_array(src_t).astype(np.float64) * entry.input_scale.scale
            skip = self._tensor_array(skip_t).astype(np.float64) * entry.aux_scale.scale
            result = quantize(src + skip, entry.output_scale)
            dst_t, _ = self._find_tensor(instr.dst_row)
            self._tensor_array(dst_t)[:, :] = result
        elif instr.kind == VectorKind.POOL:
            self._pool_functional(instr, entry)
        elif instr.kind == VectorKind.IM2COL:
            self._im2col_functional(instr)
        elif instr.kind in (VectorKind.SOFTMAX, VectorKind.LAYER_NORM):
            raise NotImplementedError(
                "softmax/layer-norm execute on the timing path only; the "
                "functional int8 contract covers the Table 1 layer kinds"
            )
        else:
            raise ValueError(f"unknown vector kind {instr.kind}")

    def _unary_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        src_t, rel = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        r0 = rel % src_t.rows
        if r0 == 0 and instr.rows == src_t.rows and instr.lanes == src_t.width:
            data = arr
        elif r0 == 0 and instr.rows * instr.lanes == src_t.rows * src_t.width:
            data = arr.reshape(instr.rows, instr.lanes)
        else:
            data = arr[r0 : r0 + instr.rows, : instr.lanes]
        if instr.function is Activation.NONE and entry.input_scale == entry.output_scale:
            codes = data.copy()
        else:
            real = apply_activation(
                data.astype(np.float64) * entry.input_scale.scale, instr.function
            )
            codes = quantize(real, entry.output_scale)
        dst_t, dst_rel = self._find_tensor(instr.dst_row)
        dst = self._tensor_array(dst_t)
        dr0 = dst_rel % dst_t.rows
        col0 = instr.aux_id
        dst[dr0 : dr0 + instr.rows, col0 : col0 + instr.lanes] = codes

    def _lstm_gate_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        hidden = instr.lanes
        batch = instr.rows
        groups = math.ceil(4 * hidden / ROW_BYTES)
        gate_cols = []
        for g in range(groups):
            gate_cols.append(self.acc.read(instr.src_row + g * batch, batch))
        acc = np.concatenate(gate_cols, axis=1)[:, : 4 * hidden]
        gates = acc.astype(np.float64) * (entry.input_scale.scale * entry.weight_scale.scale)
        gi, gf, gg, go = np.split(gates, 4, axis=1)
        gi = apply_activation(gi, Activation.SIGMOID)
        gf = apply_activation(gf, Activation.SIGMOID)
        gg = apply_activation(gg, Activation.TANH)
        go = apply_activation(go, Activation.SIGMOID)
        c = self.cell_state.get(instr.aux_id)
        if c is None:
            c = np.zeros((batch, hidden))
        c = gf * c + gi * gg
        self.cell_state[instr.aux_id] = c
        h_real = go * np.tanh(c)
        # Step output at the sequence tensor's scale...
        out_t, rel = self._find_tensor(instr.dst_row)
        r0 = rel % out_t.rows
        self._tensor_array(out_t)[r0 : r0 + batch, :hidden] = quantize(
            h_real, entry.output_scale
        )
        # ...and the recurrent copy at the concat scale.
        h_t, _ = self._find_tensor(instr.aux_id)
        self._tensor_array(h_t)[:, :hidden] = quantize(h_real, entry.aux_scale)

    def _pool_functional(self, instr: VectorInstruction, entry) -> None:
        if not self.pool_config:
            raise RuntimeError("POOL executed before Configure(KEY_POOLING)")
        cfg = self.pool_config
        src_t, _ = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        h, w, c = cfg["height"], cfg["width"], cfg["channels"]
        batch = src_t.rows // (h * w)
        image = arr[:, :c].reshape(batch, h, w, c)
        pooled = max_pool(image, cfg["window"], cfg["stride"])
        flat = pooled.reshape(-1, c)
        if entry.input_scale != entry.output_scale:
            real = flat.astype(np.float64) * entry.input_scale.scale
            flat = quantize(real, entry.output_scale)
        dst_t, _ = self._find_tensor(instr.dst_row)
        self._tensor_array(dst_t)[:, :c] = flat

    def _im2col_functional(self, instr: VectorInstruction) -> None:
        if not self.conv_config:
            raise RuntimeError("IM2COL executed before Configure(KEY_CONV)")
        cfg = self.conv_config
        src_t, _ = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        h, w, c = cfg["height"], cfg["width"], cfg["channels"]
        batch = src_t.rows // (h * w)
        image = arr[:, :c].reshape(batch, h, w, c)
        cols, _ohw = im2col(image, cfg["window"], cfg["stride"])
        r0 = instr.aux_id
        bank = (instr.dst_row - SETUP_BASE) // SETUP_BANK_STRIDE
        self.setup[bank] = cols[r0 : r0 + instr.rows].copy()

    # -- DMA -----------------------------------------------------------------
    def _dma_in_functional(self, instr: ReadHostMemory) -> None:
        if self.host_input is None:
            return
        layout = self.program.metadata.get("input_layout", "rows")
        payload = np.asarray(self.host_input)
        if layout == "rows":
            flat = payload.reshape(payload.shape[0], -1)
        elif layout == "sequence":
            flat = payload.transpose(1, 0, 2).reshape(-1, payload.shape[-1])
        elif layout == "image":
            flat = payload.reshape(-1, payload.shape[-1])
        else:
            raise ValueError(f"unknown input layout {layout!r}")
        tensor, _ = self._find_tensor(instr.ub_row)
        arr = self._tensor_array(tensor)
        arr[: flat.shape[0], : flat.shape[1]] = flat.astype(np.int8)

    def _dma_out_functional(self, instr: WriteHostMemory) -> None:
        tensor, _ = self._find_tensor(instr.ub_row)
        arr = self._tensor_array(tensor)
        out_shape = self.program.metadata.get("output_shape")
        batch = self.program.batch_size
        if out_shape is None or len(out_shape) == 1:
            self.output = arr[:, : (out_shape[0] if out_shape else arr.shape[1])].copy()
        elif len(out_shape) == 2:  # sequence: step-major back to (B, T, F)
            t, f = out_shape
            self.output = arr[:, :f].reshape(t, batch, f).transpose(1, 0, 2).copy()
        elif len(out_shape) == 3:
            h, w, c = out_shape
            self.output = arr[:, :c].reshape(batch, h, w, c).copy()
        else:
            raise ValueError(f"unsupported output shape {out_shape}")

    # -- control ----------------------------------------------------------
    def _configure(self, instr: Configure) -> None:
        if instr.key == Configure.KEY_POOLING:
            self.pool_config = unpack_pooling_config(instr.value)
        elif instr.key == Configure.KEY_CONV:
            self.conv_config = unpack_pooling_config(instr.value)
