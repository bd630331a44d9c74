"""Reference implementations that the production paths are checked against.

Every layer under ``src/`` has one production path.  The plainer loops
those paths replaced live here as test-only oracles, so each parity test
compares the production path with a second, live implementation:

* :class:`ReferenceLowering` -- per-tile emission: one N-major loop
  step per weight tile, a freshly built instruction and accumulator read
  per K-step, and lazy per-tile source-token reads, over a
  :class:`ReferenceDepTracker`;
* :class:`ReferenceDepTracker` -- the compiler's interval -> token
  tracker with two passes per write: one collects the WAR tokens, a
  second rebuilds the surviving blocks;
* :func:`reference_closed_loop` -- closed-loop load generation with one
  Python step per request slot;
* :class:`PerInstructionRun` -- the device's per-instruction loop: a
  token scoreboard and engine clocks advanced one instruction at a time,
  each instruction adding its own counters, with a serial chain for
  programs without a dependency sidecar;
* :func:`reference_jsq_window` -- ``FleetSim._jsq_window`` one arrival
  at a time: a heap pick and a queue append each, and a replay of
  ``poll`` for every arrival to an idle replica, pushing each timer it
  sets, where the production window takes a busy replica's run as one
  extend and an all-busy level as strided slices, and holds the
  earliest timer per idle replica;
* :func:`no_bulk_admission` -- stands in for ``FleetSim._bulk_admit``
  with its "nothing admitted" answer, so every arrival takes the
  per-arrival admission path: no round-robin or JSQ window, whether
  every replica is busy or idle ones are still filling a batch;
* :func:`no_batch_scan` -- stands in for ``FleetSim._scan_applies``, so
  round-robin fixed, timeout and SLO-adaptive fleets, and one-replica
  JSQ fleets, take the per-arrival event loop instead of the per-batch
  scan;
* :func:`every_event` -- stands in for ``FleetSim._run_events``: every
  arrival scheduled on the sim's heap as its own event and every timer
  fired by :func:`run_every_event`, so neither a window nor a dropped
  poll timer can hide behind the main loop that the two above share;
* :func:`reference_diurnal_arrivals` -- the diurnal thinning loop one
  candidate at a time, with a scalar sine per candidate;
* :func:`reference_stride_assign` -- the globe exact backend's stride
  scheduler over a numpy credit vector, one ``argmax`` per arrival;
* :class:`PerTokenLLMSim` -- the LLM decode engine with per-token
  bookkeeping: every iteration walks its running batch to bump each
  request's cache, emitted count and token-time list, every arrival is
  its own :class:`EventLoop` closure, and TPOT is one ``np.diff`` per
  request.

:func:`install` routes a whole process through the first three, for
checks that render paper tables end to end in a fresh interpreter.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque

import numpy as np

from repro import obs
from repro.compiler.lowering import Lowering, LoweredTensor, ROW_BYTES
from repro.compiler.tiling import tile_grid
from repro.core.counters import CycleBreakdown
from repro.core.device import ExecutionResult, _DataPass
from repro.core.dma import DMAEngine
from repro.core.matrix_unit import speed_factor
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
)
from repro.isa.program import TileSpec
from repro.serving.continuous import ContinuousBatchingSim, _Chip, _LLMRequest
from repro.serving.engine import BatchServer, LatencyCurve
from repro.serving.fleet import _PollTimer


class ReferenceDepTracker:
    """:class:`repro.compiler.lowering._DepTracker`, two passes per write."""

    def __init__(self) -> None:
        self._next = 0
        self._blocks: dict[object, list[tuple[int, int, int]]] = {}

    def write(self, key, r0, r1):
        if r1 <= r0:
            raise ValueError(f"empty write range [{r0}, {r1}) on {key!r}")
        blocks = self._blocks.setdefault(key, [])
        war = tuple(tok for (b0, b1, tok) in blocks if b0 < r1 and r0 < b1)
        blocks[:] = [(b0, b1, tok) for (b0, b1, tok) in blocks if not (b0 >= r0 and b1 <= r1)]
        token = self._next
        self._next += 1
        blocks.append((r0, r1, token))
        return token, war

    def read(self, key, r0, r1):
        blocks = self._blocks.get(key, ())
        return tuple(tok for (b0, b1, tok) in blocks if b0 < r1 and r0 < b1)


class ReferenceLowering(Lowering):
    """:class:`Lowering` with the per-tile emission loop and the two-pass
    dependency tracker."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracker = ReferenceDepTracker()

    def _weight_tiles(self, layer_name, k, n, dynamic=False):
        weight = None
        if not dynamic and self.params is not None and layer_name in self.params.weights:
            weight = self.params.weights[layer_name].data
        stripes: dict[int, list[tuple[int, int, int, int, int]]] = {}
        kt, nt = tile_grid(k, n, self.dim)
        for ni in range(nt):
            for ki in range(kt):
                k0, n0 = ki * self.dim, ni * self.dim
                k_ext, n_ext = min(self.dim, k - k0), min(self.dim, n - n0)
                tile_id = len(self._tiles)
                data = None
                if weight is not None:
                    data = np.ascontiguousarray(weight[k0 : k0 + k_ext, n0 : n0 + n_ext])
                self._tiles[tile_id] = TileSpec(
                    tile_id=tile_id, rows=k_ext, cols=n_ext, data=data, dynamic=dynamic
                )
                stripes.setdefault(n0, []).append((tile_id, k0, k_ext, n0, n_ext))
        return stripes

    def _matmul_pass(
        self,
        stripe,
        src_tokens_of_group,
        src_row_of_group,
        rows,
        acc_base,
        convolve=False,
        rw_reads=(),
    ):
        for seq, (tile_id, k0, _k_ext, _n0, _n_ext) in enumerate(stripe):
            group = k0 // self.dim
            self._emit(ReadWeights(tile_id=tile_id), (rw_reads, (), ()))
            acc_writes, acc_war = (
                self._acc_write(acc_base, rows) if seq == 0 else ((), ())
            )
            if seq > 0:
                # Accumulating writes read-modify-write the same rows.
                acc_reads = self._tracker.read("acc", acc_base, acc_base + rows)
            else:
                acc_reads = ()
            self._emit(
                MatrixMultiply(
                    ub_row=src_row_of_group(group),
                    acc_row=acc_base,
                    rows=rows,
                    accumulate=seq > 0,
                    load_new_tile=True,
                    convolve=convolve,
                    weight_bits=self.weight_bits,
                    activation_bits=self.activation_bits,
                ),
                (tuple(src_tokens_of_group(group)) + acc_reads, acc_writes, acc_war),
            )

    def _pass_inputs(self, src_t: LoweredTensor, r0: int, rows: int):
        return (
            lambda g: self._read_tensor_range(src_t, r0, rows, g * ROW_BYTES, ROW_BYTES),
            lambda g: src_t.group_row(g, r0),
        )


def reference_closed_loop(
    concurrency: int,
    batch_size: int,
    curve: LatencyCurve,
    n_batches: int = 2000,
) -> tuple[np.ndarray, BatchServer]:
    """:func:`repro.serving.engine.run_closed_loop`, one slot at a time."""
    if concurrency < batch_size:
        raise ValueError(
            f"concurrency {concurrency} cannot fill batches of {batch_size}"
        )
    server = BatchServer(curve)
    head = 0
    responses = np.empty(n_batches * batch_size)
    out = 0
    enqueue = [0.0] * concurrency
    for _ in range(n_batches):
        start = server.free_at
        done = server.start_batch(start, batch_size)
        for _slot in range(batch_size):
            responses[out] = done - enqueue[head]
            out += 1
            enqueue[head] = done  # the request re-enters the pool
            head = (head + 1) % concurrency
    return responses, server


class PerInstructionRun(_DataPass):
    """:meth:`repro.core.device.TPUDevice.run`, one instruction at a time.

    Each instruction resolves its dependency tokens on a scoreboard, runs
    on its engine's clock and adds its own counters; a functional run
    moves its data in the same step, through the data pass's helpers.  A
    program without a dependency sidecar chains each instruction after
    the last one committed, and weight fetches ignore the chain.  An
    ACTIVATE or VECTOR pass takes ``ceil(elements / activation_lanes)``
    cycles.  ``walked`` counts the instructions issued, so a parity test
    can tell this path ran.
    """

    def __init__(self, device, program, host_input=None):
        self.functional = device.functional
        super().__init__(device, program, host_input)
        self.dma = DMAEngine(self.config.pcie_bandwidth)
        self.cycles_per_second = self.config.clock_hz
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
        self.deps = program.metadata.get("deps")
        self._last_serial_token = -1  # fallback chaining when deps missing
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
        self.walked = 0

    def _init_memory(self):
        if self.functional:  # a timing run places no data
            super()._init_memory()

    # -- scoreboard ----------------------------------------------------------
    def _dep_times(self, index: int) -> tuple[float, str, float]:
        """(read-ready time, binding unit, WAR/WAW-ready time)."""
        if self.deps is None:
            # Sequential fallback for hand-assembled programs.
            prev = self.token_write.get(self._last_serial_token, (0.0, "control"))
            return prev[0], prev[1], prev[0]
        reads, _writes, war = self.deps[index]
        ready, unit = 0.0, "control"
        for token in reads:
            t, u = self.token_write.get(token, (0.0, "control"))
            if t > ready:
                ready, unit = t, u
        war_ready = 0.0
        for token in war:
            t, _u = self.token_write.get(token, (0.0, "control"))
            war_ready = max(war_ready, t, self.token_read.get(token, 0.0))
        return ready, unit, war_ready

    def _commit(self, index: int, end: float, unit: str) -> None:
        if self.deps is None:
            self._last_serial_token = index
            self.token_write[index] = (end, unit)
            return
        reads, writes, _war = self.deps[index]
        for token in writes:
            self.token_write[token] = (end, unit)
        for token in reads:
            if self.token_read.get(token, 0.0) < end:
                self.token_read[token] = end

    # -- main loop -------------------------------------------------------------
    def execute(self) -> ExecutionResult:
        bank = self.counters
        for index, instr in enumerate(self.program.instructions):
            self.walked += 1
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

    # -- engines -----------------------------------------------------------------
    def _exec_read_weights(self, index: int, instr: ReadWeights) -> None:
        slot_free = 0.0
        if self.push_count >= self.fifo_depth:
            pop_index = self.push_count - self.fifo_depth
            if pop_index < len(self.pop_times):
                slot_free = self.pop_times[pop_index]
            else:
                # The consuming matmul has not been issued yet; fall back
                # to the last known matrix time.
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
                self.matrix_unit.install_tile(spec.data)
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

    def _exec_activate(self, index: int, instr: Activate) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        duration = self._pass_cycles(instr.rows * instr.lanes)
        start = max(self.unit_free["vector"], dep_ready, war_ready)
        end = start + duration
        self.unit_free["vector"] = end
        self.counters.add("activate_instructions", 1)
        self.counters.add("activation_cycles", duration)
        if self.functional:
            self._activate_functional(instr)
        self._commit(index, end, "vector")

    def _exec_vector(self, index: int, instr: VectorInstruction) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        elements = instr.rows * instr.lanes * VectorKind.PASSES[instr.kind]
        if instr.kind == VectorKind.POOL and self.pool_config:
            elements *= self.pool_config["window"] ** 2
        # Patch streaming runs on the dedicated setup block, concurrent
        # with the activation pipeline.
        unit = "setup" if instr.kind == VectorKind.IM2COL else "vector"
        duration = self._pass_cycles(elements)
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

    def _pass_cycles(self, elements: int) -> int:
        """Cycles to push ``elements`` through the activation pipeline."""
        lanes = self.config.activation_lanes
        return (elements + lanes - 1) // lanes

    def _exec_dma_in(self, index: int, instr: ReadHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        duration = self.dma.transfer_seconds(nbytes) * self.cycles_per_second
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

    def _exec_dma_out(self, index: int, instr: WriteHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        duration = self.dma.transfer_seconds(nbytes) * self.cycles_per_second
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

    def _exec_configure(self, index: int, instr: Configure) -> None:
        start = self.unit_free["control"]
        self.unit_free["control"] = start + 1
        self._configure(instr)
        self._commit(index, start + 1, "control")


def run_every_event(loop):
    """Fire every event on ``loop._heap``, ``(time, seq, callback)``
    entries, in time and then scheduling order until the heap is empty,
    setting ``loop.now`` to each event's time first.  ``loop`` is an
    :class:`EventLoop` or a ``FleetSim``, which holds the same heap and
    clock."""
    heap = loop._heap
    pop = heapq.heappop
    while heap:
        when, _, callback = pop(heap)
        loop.now = when
        callback(when)


class EventLoop:
    """A plain event heap, sequence counter and clock for
    :class:`PerTokenLLMSim`, run by :func:`run_every_event`."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, when, callback):
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))


def no_bulk_admission(sim, i, top_when):
    """Admit nothing in bulk: every arrival takes the per-arrival path."""
    return i


def reference_jsq_window(sim, i, j, eligible):
    """``FleetSim._jsq_window`` one arrival at a time: a heap pick per
    arrival over (queue length, busy, list index), a queue append to a
    busy replica, and a replay of ``poll`` for an idle one, ending the
    window before an arrival that would launch and before the earliest
    timer the window pushed."""
    times = sim._times
    now = times[i]
    keys = [(len(r.queue), r.server.free_at > now, q) for q, r in enumerate(eligible)]
    heapq.heapify(keys)
    timers = sim._heap
    push, replace = heapq.heappush, heapq.heapreplace
    bound = math.inf  # the earliest timer this window pushed
    for k in range(i, j):
        when = times[k]
        if when >= bound:
            return k
        depth, busy, q = keys[0]
        replica = eligible[q]
        queue = replica.queue
        if not busy:
            batcher = replica.batcher
            if depth + 1 >= batcher.max_batch:
                return k
            deadline = batcher.wait_deadline(depth + 1, times[queue[0]] if queue else when)
            if deadline is not None:
                if deadline <= when:
                    return k
                seq = sim._seq
                sim._seq = seq + 1
                push(timers, (deadline, seq, _PollTimer(sim, replica)))
                if deadline < bound:
                    bound = deadline
        queue.append(k)
        replica.admitted += 1
        replace(keys, (depth + 1, busy, q))
    return j


def no_batch_scan(sim):
    """Never scan per batch: every fleet takes the per-arrival event loop."""
    return False


def every_event(sim):
    """Stands in for ``FleetSim._run_events``: every arrival is its own
    event on the sim's heap and :func:`run_every_event` fires every
    event, a poll timer whose replica is still busy included; no window
    opens and no batch scan runs."""
    for index, when in enumerate(sim._times):
        sim.schedule(when, lambda _t, i=index: sim._on_arrival(i))
    run_every_event(sim)


def reference_diurnal_arrivals(
    mean_rate, swing, period_seconds, n_requests, seed=0, phase=0.0
):
    """:func:`repro.serving.traffic.diurnal_arrivals` one candidate at a
    time: a scalar gap, a scalar sine and a scalar thinning test each."""
    peak = mean_rate * (1.0 + swing)
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    while len(times) < n_requests:
        t += rng.exponential(1.0 / peak)
        rate = mean_rate * (
            1.0 + swing * np.sin(2.0 * np.pi * (t / period_seconds + phase))
        )
        if rng.random() < rate / peak:
            times.append(t)
    return np.asarray(times)


def reference_stride_assign(n: int, fractions: np.ndarray) -> np.ndarray:
    """:func:`repro.globe.backend._stride_assign` with numpy credits."""
    active = np.nonzero(fractions > 0)[0]
    if active.size == 1:
        return np.full(n, active[0], dtype=np.intp)
    credits = np.zeros_like(fractions)
    out = np.empty(n, dtype=np.intp)
    for k in range(n):
        credits += fractions
        pick = int(np.argmax(credits))
        credits[pick] -= 1.0
        out[k] = pick
    return out


class _TokenRequest(_LLMRequest):
    """A request that carries its cache length and token times itself."""

    __slots__ = ("kv", "first_token", "finish", "token_times")

    def __init__(self, index: int, arrival: float, prompt: int, decode: int):
        super().__init__(index, arrival, prompt, decode)
        self.kv = 0
        self.first_token = math.nan
        self.finish = math.nan
        self.token_times: list[float] = []


class PerTokenLLMSim(ContinuousBatchingSim):
    """:class:`ContinuousBatchingSim` with per-token bookkeeping.

    Every arrival is scheduled up front as its own :class:`EventLoop`
    closure; every iteration walks its running batch to grow each cache,
    count each token and append each token time.  ``walked`` counts the
    per-token steps taken, so a parity test can tell this path ran.
    """

    def run(self, arrivals, prompts, decodes):
        self.walked = 0
        self._begin([
            _TokenRequest(i, float(arrivals[i]), int(prompts[i]), int(decodes[i]))
            for i in range(len(arrivals))
        ])
        self.loop = EventLoop()
        for req in self.requests:
            self.loop.schedule(req.arrival, self._make_arrival(req.index))
        self._schedule_ticks()
        run_every_event(self.loop)
        return self._finalize(self.loop.now)

    def _schedule(self, when, callback, *args):
        self.loop.schedule(when, lambda t: callback(*args, t))

    def _make_arrival(self, index: int):
        def arrival(now: float) -> None:
            self._arrive(index, now)

        return arrival

    def _finalize(self, horizon: float):
        if self.completed != self.n:
            raise RuntimeError(
                f"request conservation violated: {self.completed} of "
                f"{self.n} requests completed (scheduler lost work)"
            )
        intervals: list[np.ndarray] = []
        for req in self.requests:
            if req.emitted != req.decode:
                raise RuntimeError(
                    f"token conservation violated: request {req.index} "
                    f"emitted {req.emitted} of {req.decode} tokens"
                )
            times = np.asarray(req.token_times)
            if times.size > 1:
                intervals.append(np.diff(times))
        return self._result(
            horizon,
            first_token=np.array([r.first_token for r in self.requests]),
            finish=np.array([r.finish for r in self.requests]),
            tpot_intervals=(
                np.concatenate(intervals) if intervals else np.empty(0)
            ),
        )

    def _start_iteration(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        run = chip.running
        inline_prefill_macs = 0
        admit = chip.enabled and (cfg.scheduler == "continuous" or not run)
        while admit and self.decode_queue and len(run) < cfg.max_batch:
            req = self.requests[self.decode_queue[0]]
            need = req.prompt + req.emitted
            if chip.kv_used + need + len(run) + 1 > cfg.kv_capacity:
                break
            self.decode_queue.popleft()
            req.kv = need
            chip.kv_used += need
            run.append(req.index)
            if self.prefill_pool is None:
                req.prefills += 1
                inline_prefill_macs += self.timing.prefill_macs(need)
        evicted = False
        for index in run:
            self.requests[index].kv += 1
        chip.kv_used += len(run)
        while chip.kv_used > cfg.kv_capacity:
            victim = self.requests[run.pop()]
            chip.kv_used -= victim.kv
            victim.kv = 0
            victim.evictions += 1
            self.evictions += 1
            evicted = True
            if self.prefill_pool is not None:
                self.prefill_queue.appendleft(victim.index)
            else:
                self.decode_queue.appendleft(victim.index)
        if not run:
            if evicted and self.prefill_pool is None and self.decode_queue:
                self._start_iteration(chip, now)
                return
            chip.idle = True
            if not chip.enabled:
                chip.power_off(now)
            if evicted and self.prefill_pool is not None:
                self._kick_prefill(now)
            return
        active = len(run)
        step = self.timing.iteration_seconds(
            active, chip.kv_used, inline_prefill_macs
        )
        chip.idle = False
        chip.busy_seconds += step
        self.decode_pool.window_busy += step
        self.iterations += 1
        self.token_batch_sum += active
        if chip.kv_used > self.kv_peak:
            self.kv_peak = chip.kv_used
        if self._observe:
            obs.TRACER.sim_span(
                f"iter b{active}", now, step, cat="llm",
                tid=chip.index, batch=active, kv=chip.kv_used,
            )
        self.loop.schedule(
            now + step, lambda t, c=chip: self._end_iteration(c, t)
        )
        if evicted and self.prefill_pool is not None:
            self._kick_prefill(now)

    def _end_iteration(self, chip: _Chip, now: float) -> None:
        finished = []
        for index in chip.running:
            req = self.requests[index]
            req.emitted += 1
            self.tokens += 1
            self.walked += 1
            if math.isnan(req.first_token):
                req.first_token = now
            req.token_times.append(now)
            if req.emitted == req.decode:
                finished.append(index)
        for index in finished:
            req = self.requests[index]
            req.finish = now
            chip.kv_used -= req.kv
            req.kv = 0
            chip.running.remove(index)
            self.completed += 1
        self._start_iteration(chip, now)
        if self.decode_queue:
            self._kick_decode(now)


def install() -> Counter:
    """Route this process's compiler, device and closed-loop calls through
    the oracles; returns a live count of how often each one fired.

    Patches module and class attributes in place and never undoes them, so call it
    only in a fresh interpreter.  ``Lowering`` and ``run_closed_loop`` are
    bound by name in ``repro.compiler.driver`` and ``repro.latency.sweep``
    (Table 4's :func:`~repro.latency.sweep.table4_point`) at import, so
    those bindings are the ones replaced.
    """
    from repro.compiler import driver
    from repro.core import device
    from repro.latency import sweep

    fired: Counter = Counter()

    class CountingLowering(ReferenceLowering):
        def _matmul_pass(self, *args, **kwargs):
            fired["lowering"] += 1
            super()._matmul_pass(*args, **kwargs)

    def device_loop(dev, program, host_input=None):
        fired["device"] += 1
        return PerInstructionRun(dev, program, host_input).execute()

    def closed_loop(*args, **kwargs):
        fired["closed_loop"] += 1
        return reference_closed_loop(*args, **kwargs)

    driver.Lowering = CountingLowering
    device.TPUDevice._execute = device_loop
    sweep.run_closed_loop = closed_loop
    return fired
