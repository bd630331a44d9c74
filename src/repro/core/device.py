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
from repro.core.weight_fifo import WeightFIFO
from repro.core.weight_memory import WeightMemory
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
    unpack_pooling_config,
)
from repro.isa.program import TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import apply_activation, quantize
from repro.nn.reference import im2col, max_pool

ROW_BYTES = 256
SETUP_BASE = 0x800000
SETUP_BANK_STRIDE = 1 << 22

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
        self.dma = DMAEngine(config.pcie_bandwidth)

    # ------------------------------------------------------------------
    def run(self, program: TPUProgram, host_input: np.ndarray | None = None) -> ExecutionResult:
        """Execute one batch of ``program``.

        In functional mode ``host_input`` must hold the quantized input
        codes shaped (batch, *input_shape); the result carries the output
        codes.  In timing mode data is ignored entirely.
        """
        runner = _Run(self, program, host_input)
        if not (obs.TRACER.enabled or obs.REGISTRY.enabled):
            return runner.execute()
        start = time.perf_counter()
        result = runner.execute()
        _record_run(self, result, time.perf_counter() - start)
        return result


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
# arrays and reduced once (integer sums are exact, so the totals are
# bit-identical to the per-instruction loop's one-at-a-time adds), and the
# run loop that remains touches only the scoreboard and engine clocks.
# Every timing run of a compiled program takes the plan; the
# per-instruction loop serves functional runs and programs without a
# dependency sidecar.

_OP_RW, _OP_MM, _OP_ACT, _OP_VEC, _OP_DIN, _OP_DOUT, _OP_SYNC, _OP_CTRL = range(8)


@dataclass
class _TimingPlan:
    """Schedule-independent precomputation for one program."""

    ops: list[tuple]
    counter_totals: list[tuple[str, float]]
    active: float
    useful: float


def _build_timing_plan(program: TPUProgram, config: TPUConfig) -> _TimingPlan | None:
    """One static pass over the instruction stream; None = use the
    per-instruction loop (missing dependency sidecar or a malformed stream)."""
    deps = program.metadata.get("deps")
    if deps is None:
        return None
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
    # Ordered float accumulation (fill-weighted active time and DMA cycle
    # conversions are not integers, so addition order must match the
    # per-instruction loop exactly).
    active = 0.0
    useful = 0.0
    din_cycles = 0.0
    dout_cycles = 0.0
    pool_config: dict[str, int] | None = None
    fifo_ids: deque[int] = deque()

    for index, instr in enumerate(program.instructions):
        n_issued += 1
        dep = deps[index]
        if isinstance(instr, ReadWeights):
            spec = program.tiles.get(instr.tile_id)
            if spec is not None and spec.dynamic:
                nbytes = spec.rows * spec.cols
                load_cycles = tile_load_cycles * nbytes / tile_bytes
            else:
                nbytes = tile_bytes
                load_cycles = tile_load_cycles
            rw_bytes.append(nbytes)
            fifo_ids.append(instr.tile_id)
            ops.append((_OP_RW, load_cycles, dep.reads, dep.writes))
        elif isinstance(instr, MatrixMultiply):
            spec = None
            if instr.load_new_tile:
                if not fifo_ids:
                    return None  # the per-instruction loop raises the real error
                spec = program.tiles[fifo_ids.popleft()]
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
                (_OP_MM, duration, dep.reads, dep.war, dep.writes, instr.load_new_tile)
            )
        elif isinstance(instr, Activate):
            duration = -(-(instr.rows * instr.lanes) // lanes)
            n_activate += 1
            act_cycles.append(duration)
            ops.append((_OP_ACT, duration, dep.reads, dep.war, dep.writes))
        elif isinstance(instr, VectorInstruction):
            elements = instr.rows * instr.lanes * VectorKind.PASSES[instr.kind]
            pooling = instr.kind == VectorKind.POOL
            if pooling and pool_config:
                elements *= pool_config["window"] ** 2
            duration = -(-elements // lanes)
            (pool_cycles if pooling else act_cycles).append(duration)
            unit = "setup" if instr.kind == VectorKind.IM2COL else "vector"
            ops.append((_OP_VEC, duration, unit, dep.reads, dep.war, dep.writes))
        elif isinstance(instr, ReadHostMemory):
            nbytes = instr.rows * ROW_BYTES
            din_bytes.append(nbytes)
            din_cycles += dma_seconds(nbytes) * clock
            ops.append((_OP_DIN, nbytes, dep.war, dep.reads, dep.writes))
        elif isinstance(instr, WriteHostMemory):
            nbytes = instr.rows * ROW_BYTES
            dout_bytes.append(nbytes)
            dout_cycles += dma_seconds(nbytes) * clock
            ops.append((_OP_DOUT, nbytes, dep.reads, dep.writes))
        elif isinstance(instr, Configure):
            if instr.key == Configure.KEY_POOLING:
                pool_config = unpack_pooling_config(instr.value)
            ops.append((_OP_CTRL, dep.reads, dep.writes))
        elif isinstance(instr, (Sync, SyncHost)):
            n_sync += 1
            ops.append((_OP_SYNC, dep.reads, dep.writes))
        elif isinstance(instr, (DebugTag, Nop, InterruptHost)):
            if isinstance(instr, Nop):
                n_nop += 1
            ops.append((_OP_CTRL, dep.reads, dep.writes))
        elif isinstance(instr, Halt):
            break
        else:
            return None

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
        counter_totals=[(name, value) for name, value in totals if value],
        active=active,
        useful=useful,
    )


def _timing_plan_for(program: TPUProgram, config: TPUConfig) -> _TimingPlan | None:
    """The program's cached plan (keyed by config, since durations derive
    from it).  Stored as a plain attribute: it must never leak into the
    program's dataclass fields, equality, or serialized binary."""
    cached = getattr(program, "_timing_plan", None)
    if cached is not None and cached[0] == config:
        return cached[1]
    plan = _build_timing_plan(program, config)
    program._timing_plan = (config, plan)
    return plan


class _Run:
    """Single-program execution state (timing + optional functional)."""

    def __init__(self, device: TPUDevice, program: TPUProgram, host_input: np.ndarray | None) -> None:
        self.device = device
        self.config = device.config
        self.program = program
        self.functional = device.functional
        self.host_input = host_input
        self.counters = CounterBank()
        clock = self.config.clock_hz
        self.cycles_per_second = clock
        # -- engines -------------------------------------------------------
        self.unit_free = {
            "matrix": 0.0,
            "vector": 0.0,
            "setup": 0.0,  # the floorplan's Systolic Data Setup block
            "dma_in": 0.0,
            "dma_out": 0.0,
            "dram": 0.0,
            "control": 0.0,
        }
        # -- scoreboard ------------------------------------------------------
        self.token_write: dict[int, tuple[float, str]] = {}
        self.token_read: dict[int, float] = {}
        deps = program.metadata.get("deps")
        self.deps = deps if deps is not None else None
        # -- weight path ------------------------------------------------------
        self.fifo_depth = self.config.weight_fifo_tiles
        self.tile_load_cycles = self.config.tile_load_cycles()
        self.ready_queue: deque[tuple[int, float]] = deque()  # (tile_id, ready)
        self.pop_times: list[float] = []
        self.push_count = 0
        self.prev_mm_start = 0.0
        # -- stall accounting --------------------------------------------------
        self.active = 0.0
        self.useful = 0.0
        self.weight_stall = 0.0
        self.weight_shift = 0.0
        self.raw_stall = 0.0
        self.input_stall = 0.0
        # -- functional state ----------------------------------------------------
        self.tensors: list[_Tensor] = []
        self.tensor_bases: list[int] = []
        self.setup: dict[int, np.ndarray] = {}
        self.cell_state: dict[int, np.ndarray] = {}
        self.pool_config: dict[str, int] | None = None
        self.conv_config: dict[str, int] | None = None
        self.output: np.ndarray | None = None
        self.weight_memory: WeightMemory | None = None
        self.fifo_data = WeightFIFO(self.fifo_depth)
        self.matrix_unit = MatrixUnit(self.config)
        self.acc = AccumulatorFile(self.config.accumulator_rows, self.config.matrix_dim)
        self._last_serial_token = -1  # fallback chaining when deps missing
        self._init_memory()

    # ------------------------------------------------------------------
    def _init_memory(self) -> None:
        table = self.program.metadata.get("tensors", {})
        for name, (base_row, rows, width) in sorted(table.items(), key=lambda kv: kv[1][0]):
            self.tensors.append(_Tensor(base_row, rows, width))
        self.tensors.sort(key=lambda t: t.base_row)
        self.tensor_bases = [t.base_row for t in self.tensors]
        if self.functional:
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
    # scoreboard helpers
    # ------------------------------------------------------------------
    def _dep_times(self, index: int) -> tuple[float, str, float]:
        """(read-ready time, binding unit, WAR/WAW-ready time)."""
        if self.deps is None:
            # Sequential fallback for hand-assembled programs.
            prev = self.token_write.get(self._last_serial_token, (0.0, "control"))
            return prev[0], prev[1], prev[0]
        dep = self.deps[index]
        ready, unit = 0.0, "control"
        for token in dep.reads:
            t, u = self.token_write.get(token, (0.0, "control"))
            if t > ready:
                ready, unit = t, u
        war_ready = 0.0
        for token in dep.war:
            t, _u = self.token_write.get(token, (0.0, "control"))
            war_ready = max(war_ready, t, self.token_read.get(token, 0.0))
        return ready, unit, war_ready

    def _commit(self, index: int, end: float, unit: str) -> None:
        if self.deps is None:
            self._last_serial_token = index
            self.token_write[index] = (end, unit)
            return
        dep = self.deps[index]
        for token in dep.writes:
            self.token_write[token] = (end, unit)
        for token in dep.reads:
            if self.token_read.get(token, 0.0) < end:
                self.token_read[token] = end

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionResult:
        if not self.functional and self.deps is not None:
            plan = _timing_plan_for(self.program, self.config)
            if plan is not None:
                return self._execute_plan(plan)
        bank = self.counters
        for index, instr in enumerate(self.program.instructions):
            bank.add("instructions_issued", 1)
            if isinstance(instr, ReadWeights):
                self._exec_read_weights(index, instr)
            elif isinstance(instr, MatrixMultiply):
                self._exec_matmul(index, instr)
            elif isinstance(instr, Activate):
                self._exec_activate(index, instr)
            elif isinstance(instr, VectorInstruction):
                self._exec_vector(index, instr)
            elif isinstance(instr, ReadHostMemory):
                self._exec_dma_in(index, instr)
            elif isinstance(instr, WriteHostMemory):
                self._exec_dma_out(index, instr)
            elif isinstance(instr, Configure):
                self._exec_configure(index, instr)
            elif isinstance(instr, (Sync, SyncHost)):
                barrier = max(self.unit_free.values())
                self.unit_free["control"] = barrier
                bank.add("sync_instructions", 1)
                self._commit(index, barrier, "control")
            elif isinstance(instr, (DebugTag, Nop, InterruptHost)):
                start = self.unit_free["control"]
                self.unit_free["control"] = start + 1
                if isinstance(instr, Nop):
                    bank.add("nop_instructions", 1)
                self._commit(index, start + 1, "control")
            elif isinstance(instr, Halt):
                break
            else:
                raise TypeError(f"device cannot execute {type(instr)!r}")

        total = max(self.unit_free.values())
        total = max(total, 1.0)
        bank.add("total_cycles", total)
        bank.add("array_active_cycles", self.active)
        bank.add("useful_mac_cycles", self.useful)
        bank.add("weight_stall_cycles", self.weight_stall)
        bank.add("weight_shift_cycles", self.weight_shift)
        non_matrix = max(total - self.active - self.weight_stall - self.weight_shift, 0.0)
        bank.add("non_matrix_cycles", non_matrix)
        bank.add("raw_stall_cycles", min(self.raw_stall, non_matrix))
        bank.add("input_stall_cycles", min(self.input_stall, non_matrix))
        bank.add("batches_completed", 1)
        breakdown = CycleBreakdown(
            total=total,
            active=self.active,
            weight_stall=self.weight_stall,
            weight_shift=self.weight_shift,
            non_matrix=non_matrix,
            useful_mac_weighted=min(self.useful, self.active),
            raw_stall=min(self.raw_stall, non_matrix),
            input_stall=min(self.input_stall, non_matrix),
        )
        return ExecutionResult(
            program_name=self.program.name,
            batch_size=self.program.batch_size,
            cycles=total,
            seconds=total / self.cycles_per_second,
            breakdown=breakdown,
            counters=bank.snapshot(),
            output=self.output,
        )

    # ------------------------------------------------------------------
    # plan-driven scheduler
    # ------------------------------------------------------------------
    def _execute_plan(self, plan: _TimingPlan) -> ExecutionResult:
        """The per-instruction loop with every static quantity precomputed.

        Only the scoreboard and per-engine clocks remain per-instruction;
        every arithmetic expression matches the ``_exec_*`` engine methods
        term for term, so cycle counts and stall attribution are
        bit-identical.
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
        fifo_depth = self.fifo_depth
        shift_cycles = self.config.weight_shift_cycles
        dma = self.device.dma
        clock = self.cycles_per_second

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
                _, nbytes, war, reads, writes = op
                duration = dma.host_to_device(None, nbytes) * clock
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
                _, nbytes, reads, writes = op
                duration = dma.device_to_host(None, nbytes) * clock
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
        bank = self.counters
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
            program_name=self.program.name,
            batch_size=self.program.batch_size,
            cycles=total,
            seconds=total / self.cycles_per_second,
            breakdown=breakdown,
            counters=bank.snapshot(),
            output=None,
        )

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def _exec_read_weights(self, index: int, instr: ReadWeights) -> None:
        slot_free = 0.0
        if self.push_count >= self.fifo_depth:
            pop_index = self.push_count - self.fifo_depth
            if pop_index < len(self.pop_times):
                slot_free = self.pop_times[pop_index]
            else:
                # The consuming matmul has not been issued yet (should not
                # happen with compiler-ordered streams); fall back to the
                # last known matrix time.
                slot_free = self.unit_free["matrix"]
        # Static weight tiles stream the full padded tile; dynamic tiles
        # (attention K^T/V staged through Weight Memory) move only their
        # packed bytes, and must wait for the activations they stage.
        spec = self.program.tiles.get(instr.tile_id)
        if spec is not None and spec.dynamic:
            nbytes = spec.rows * spec.cols
            load_cycles = self.tile_load_cycles * nbytes / self.config.tile_bytes
        else:
            nbytes = self.config.tile_bytes
            load_cycles = self.tile_load_cycles
        dep_ready = 0.0
        if self.deps is not None:
            dep_ready, _unit, _war = self._dep_times(index)
        start = max(self.unit_free["dram"], slot_free, dep_ready)
        end = start + load_cycles
        self.unit_free["dram"] = end
        self.ready_queue.append((instr.tile_id, end))
        self.push_count += 1
        self.counters.add("read_weights_instructions", 1)
        self.counters.add("weight_tiles_loaded", 1)
        self.counters.add("weight_bytes_read", nbytes)
        self._commit(index, end, "dram")

    def _exec_matmul(self, index: int, instr: MatrixMultiply) -> None:
        cfg = self.config
        dep_ready, dep_unit, war_ready = self._dep_times(index)
        matrix_free = self.unit_free["matrix"]
        shift_done = 0.0
        tile_ready = 0.0
        shift_start = 0.0
        spec = None
        if instr.load_new_tile:
            if not self.ready_queue:
                raise RuntimeError("MatrixMultiply with load_new_tile but empty Weight FIFO")
            tile_id, tile_ready = self.ready_queue.popleft()
            spec = self.program.tiles[tile_id]
            shift_start = max(tile_ready, self.prev_mm_start)
            self.pop_times.append(shift_start)
            shift_done = shift_start + cfg.weight_shift_cycles
            if self.functional:
                data, _seconds = self.weight_memory.read_tile(tile_id)
                self.matrix_unit.install_tile(tile_id, data)
        start = max(matrix_free, shift_done, dep_ready, war_ready)
        idle = start - matrix_free
        if idle > 0:
            stall = 0.0
            shift = 0.0
            if instr.load_new_tile:
                stall = max(0.0, min(start, tile_ready) - matrix_free)
                shift = max(
                    0.0,
                    min(start, shift_done) - max(matrix_free, shift_start, tile_ready),
                )
            covered = stall + shift
            self.weight_stall += stall
            self.weight_shift += shift
            rest = idle - covered
            if rest > 0 and dep_ready >= start - 1e-9:
                if dep_unit == "dma_in":
                    self.input_stall += rest
                else:
                    self.raw_stall += rest
        factor = speed_factor(instr.weight_bits, instr.activation_bits)
        duration = instr.rows * factor
        end = start + duration
        self.unit_free["matrix"] = end
        self.prev_mm_start = start
        self.active += duration
        if spec is not None:
            fill = (spec.rows * spec.cols) / (cfg.matrix_dim * cfg.matrix_dim)
        else:
            fill = 1.0
        self.useful += duration * fill
        macs = instr.rows * (spec.rows * spec.cols if spec is not None else cfg.macs)
        self.counters.add("macs_issued", macs)
        self.counters.add("ops_committed", 2 * macs)
        self.counters.add("rows_streamed", instr.rows)
        self.counters.add(
            "convolve_instructions" if instr.convolve else "matmul_instructions", 1
        )
        if self.functional:
            self._matmul_functional(instr, spec)
        self._commit(index, end, "matrix")

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

    def _exec_activate(self, index: int, instr: Activate) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        duration = self.device.activation_unit.cycles(instr.rows * instr.lanes)
        start = max(self.unit_free["vector"], dep_ready, war_ready)
        end = start + duration
        self.unit_free["vector"] = end
        self.counters.add("activate_instructions", 1)
        self.counters.add("activation_cycles", duration)
        if self.functional:
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
        self._commit(index, end, "vector")

    # -- vector path ------------------------------------------------------
    def _exec_vector(self, index: int, instr: VectorInstruction) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        elements = instr.rows * instr.lanes * VectorKind.PASSES[instr.kind]
        if instr.kind == VectorKind.POOL and self.pool_config:
            elements *= self.pool_config["window"] ** 2
        # Patch streaming runs on the dedicated setup block, concurrent
        # with the activation pipeline.
        unit = "setup" if instr.kind == VectorKind.IM2COL else "vector"
        duration = self.device.activation_unit.cycles(elements)
        start = max(self.unit_free[unit], dep_ready, war_ready)
        end = start + duration
        self.unit_free[unit] = end
        self.counters.add(
            "pooling_cycles" if instr.kind == VectorKind.POOL else "activation_cycles",
            duration,
        )
        if self.functional:
            self._vector_functional(instr)
        self._commit(index, end, unit)

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
    def _exec_dma_in(self, index: int, instr: ReadHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        seconds = self.device.dma.host_to_device(None, nbytes)
        duration = seconds * self.cycles_per_second
        _ready, _unit, war_ready = self._dep_times(index)
        start = max(self.unit_free["dma_in"], war_ready)
        end = start + duration
        self.unit_free["dma_in"] = end
        self.counters.add("read_host_instructions", 1)
        self.counters.add("pcie_bytes_in", nbytes)
        self.counters.add("dma_in_cycles", duration)
        if self.functional:
            self._dma_in_functional(instr)
        self._commit(index, end, "dma_in")

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

    def _exec_dma_out(self, index: int, instr: WriteHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        seconds = self.device.dma.device_to_host(None, nbytes)
        duration = seconds * self.cycles_per_second
        ready, _unit, _war = self._dep_times(index)
        start = max(self.unit_free["dma_out"], ready)
        end = start + duration
        self.unit_free["dma_out"] = end
        self.counters.add("write_host_instructions", 1)
        self.counters.add("pcie_bytes_out", nbytes)
        self.counters.add("dma_out_cycles", duration)
        if self.functional:
            self._dma_out_functional(instr)
        self._commit(index, end, "dma_out")

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
    def _exec_configure(self, index: int, instr: Configure) -> None:
        start = self.unit_free["control"]
        self.unit_free["control"] = start + 1
        if instr.key == Configure.KEY_POOLING:
            self.pool_config = unpack_pooling_config(instr.value)
        elif instr.key == Configure.KEY_CONV:
            self.conv_config = unpack_pooling_config(instr.value)
        self._commit(index, start + 1, "control")
