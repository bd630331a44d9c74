"""The TPU device: a 4-stage-CISC, multi-engine timing + functional model.

Execution model (Section 2): instructions arrive in order and are
dispatched to their engine -- the matrix unit, the vector/activation
pipeline, the weight-fetch engine (decoupled access/execute), or one of
the two DMA directions.  Engines run concurrently; the compiler's
dependency sidecar (read/write/WAR tokens) is the scoreboard that
serializes true hazards, which is exactly the "delay slot" behaviour the
paper describes between a layer's activations and the next layer's
matmuls.  Every run takes one timing walk over the program's sealed
instruction columns (:class:`repro.isa.encoding.InstructionColumns`),
and a functional run adds one untimed pass over the decoded
instructions that moves the data.

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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro import obs
from repro.core.accumulators import AccumulatorFile
from repro.core.config import TPUConfig, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.dma import DMAEngine
from repro.core.matrix_unit import MatrixUnit, speed_factor
from repro.isa.encoding import (
    MM_ACTIVATION_16,
    MM_CONVOLVE,
    MM_LOAD_NEW_TILE,
    MM_WEIGHT_16,
    MM_WIDTH_BITS,
    VECTOR_KIND_BITS,
)
from repro.isa.instructions import (
    Activate,
    Configure,
    Halt,
    MatrixMultiply,
    ROW_BYTES,
    ReadHostMemory,
    ReadWeights,
    SETUP_BANK_STRIDE,
    SETUP_BASE,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    unpack_pooling_config,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import apply_activation, quantize, requantize
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
    ) -> None:
        if config.matrix_dim != ROW_BYTES:
            raise NotImplementedError(
                "the device simulator models the 256-wide datapath; use "
                "repro.perfmodel for scaled designs (as the paper did)"
            )
        self.config = config
        self.functional = functional

    # ------------------------------------------------------------------
    def run(self, program: TPUProgram, host_input: np.ndarray | None = None) -> ExecutionResult:
        """Execute one batch of ``program``.

        Every run takes its cycles, breakdown and counters from one
        timing walk over the program.  In functional mode ``host_input`` must
        hold the quantized input codes shaped (batch, *input_shape); an
        untimed pass moves the data, and the result carries the output
        codes.  In timing mode data is ignored entirely.
        """
        if not obs.TRACER.enabled:
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
        return _walk(program, self.config, counters, output)


def _record_run(device: "TPUDevice", result: ExecutionResult, wall_s: float) -> None:
    """The wall span of one program replay (only called while tracing).

    The span carries the simulated outcome (cycles, simulated ms) against
    real elapsed time; the per-unit counters stay on ``result.counters``.
    """
    now = obs.TRACER.now()
    obs.TRACER.record_wall(
        f"device:{result.program_name}", now - wall_s * 1e6, wall_s * 1e6,
        cat="device",
        batch=result.batch_size,
        cycles=result.cycles,
        sim_ms=result.seconds * 1e3,
        mxu_active_frac=round(result.breakdown.active_fraction, 4),
        functional=device.functional,
    )


# ----------------------------------------------------------------------
# timing walk
# ----------------------------------------------------------------------
# The device's only timing model: every run takes one walk over its
# program's sealed columns (:class:`repro.isa.encoding.InstructionColumns`),
# and a functional run adds an untimed :class:`_DataPass` over the decoded
# view.  Each instruction's engine, duration, weight-tile pairing and
# counter increments come from its opcode, operand and flags; the walk
# then waits for its dependency tokens and its engine, and occupies the
# engine.  The scoreboard is three flat lists indexed by token, which the
# compiler numbers densely from 0.  Integer counters add as Python ints
# and float totals add in program order, so every total equals the
# one-instruction-at-a-time adds of the test oracle ``PerInstructionRun``
# in ``tests/oracles.py``, which walks decoded instruction objects.


_EMPTY_FIFO = "MatrixMultiply with load_new_tile but empty Weight FIFO"

_READ_HOST = Opcode.READ_HOST_MEMORY.value
_WRITE_HOST = Opcode.WRITE_HOST_MEMORY.value
_READ_WEIGHTS = Opcode.READ_WEIGHTS.value
_MATMUL = Opcode.MATRIX_MULTIPLY.value
_ACTIVATE = Opcode.ACTIVATE.value
_VECTOR = Opcode.VECTOR.value
_SYNC = Opcode.SYNC.value
_SYNC_HOST = Opcode.SYNC_HOST.value
_CONFIGURE = Opcode.CONFIGURE.value
_INTERRUPT_HOST = Opcode.INTERRUPT_HOST.value
_DEBUG_TAG = Opcode.DEBUG_TAG.value
_NOP = Opcode.NOP.value
_HALT = Opcode.HALT.value


def _sidecar(program: TPUProgram) -> tuple[Sequence[tuple], int]:
    """The program's ``(reads, writes, war)`` token triples, and the
    number of scoreboard slots they need.

    A sidecar the compiler sealed with the instruction columns comes
    with its token count.  A program without a sidecar -- hand-assembled,
    or built with :func:`repro.isa.assemble` or
    :func:`repro.isa.decode_program` -- runs as a serial chain: each
    instruction waits for the one before it, except a weight fetch,
    which waits only for the DRAM port and a free FIFO slot.  Any other
    sidecar (hand-built, sliced or edited) is checked here: one whose
    length is not the instruction count is refused, and so is a negative
    token, which would index another token's slot.
    """
    columns = program.instructions
    deps = program.metadata.get("deps")
    if deps is None:
        serial = []
        for index, op in enumerate(columns.opcode.tolist()):
            prev = () if index == 0 or op == _READ_WEIGHTS else (index - 1,)
            serial.append((prev, (index,), prev))
        return serial, len(columns)
    if deps is columns.deps:
        return deps, columns.deps_tokens
    if len(deps) != len(columns):
        raise ValueError(
            f"program {program.name!r}: dependency sidecar has {len(deps)} "
            f"entries for {len(columns)} instructions"
        )
    tokens = list(chain.from_iterable(chain.from_iterable(deps)))
    lowest = min(tokens, default=0)
    if lowest < 0:
        raise ValueError(
            f"program {program.name!r}: dependency sidecar holds the "
            f"negative token {lowest}"
        )
    return deps, max(tokens, default=-1) + 1


def _walk(
    program: TPUProgram,
    config: TPUConfig,
    bank: CounterBank,
    output: np.ndarray | None,
) -> ExecutionResult:
    """Run ``program``'s scoreboard and engine clocks; assemble the result.

    A matmul that loads a new tile also waits for the tile's fetch and
    shift, and the breakdown splits its idle time into weight stall,
    weight shift and the RAW/PCIe-input sub-counters.  The counters are
    added to ``bank``, which a functional run has already charged with
    its data counters; ``output`` is that run's output codes.  A
    malformed stream raises: a ``load_new_tile`` matmul with the Weight
    FIFO empty, or a tile missing from ``program.tiles``.  An unknown
    opcode is refused when the columns are built; the walk still names
    one if a column is replaced afterwards.
    """
    columns = program.instructions
    deps, slots = _sidecar(program)
    write_end = [0.0] * slots
    write_unit = ["control"] * slots
    read_end = [0.0] * slots

    tiles = program.tiles
    tile_load_cycles = config.tile_load_cycles()
    tile_bytes = config.tile_bytes
    dim2 = config.matrix_dim * config.matrix_dim
    lanes = config.activation_lanes
    clock = config.clock_hz
    dma_seconds = DMAEngine(config.pcie_bandwidth).transfer_seconds
    fifo_depth = config.weight_fifo_tiles
    shift_cycles = config.weight_shift_cycles
    passes = VectorKind.PASSES

    matrix = vector = setup = dma_in = dma_out = dram = control = 0.0
    fifo: deque[tuple[float, int]] = deque()  # (ready time, tile id)
    pop_times: list[float] = []  # when each popped tile's shift began
    prev_mm_start = 0.0
    weight_stall = weight_shift = raw_stall = input_stall = 0.0
    widths = -1
    factor = 0
    pool_config: dict[str, int] | None = None
    # Ordered float totals: fill-weighted active time and DMA cycle
    # conversions are not integers.  The DMA totals start as int 0, like
    # a counter, so they turn float with the first transfer, even an
    # empty one.
    active = useful = 0.0
    dma_in_cycles = dma_out_cycles = 0
    n_fetch = weight_bytes = 0
    n_matmul = n_convolve = macs = rows_streamed = 0
    n_activate = activation_cycles = pooling_cycles = 0
    n_read_host = pcie_in = n_write_host = pcie_out = 0
    n_sync = n_nop = issued = 0

    # The constants the two hottest branches test, as fast locals.
    matmul, read_weights, width_bits, load_new_tile, convolve = (
        _MATMUL, _READ_WEIGHTS, MM_WIDTH_BITS, MM_LOAD_NEW_TILE, MM_CONVOLVE
    )
    # One ``tolist()`` per column: the loop then reads plain ints.
    stream = zip(
        columns.opcode.tolist(), columns.operand.tolist(), columns.flags.tolist(), deps
    )
    for issued, (op, operand, flags, (reads, writes, war)) in enumerate(stream, 1):
        if op == matmul:
            rows = operand
            # The speed factor changes only with the operand widths.
            if flags & width_bits != widths:
                widths = flags & width_bits
                factor = speed_factor(
                    16 if flags & MM_WEIGHT_16 else 8, 16 if flags & MM_ACTIVATION_16 else 8
                )
            duration = rows * factor
            ready = 0.0
            binding = "control"
            for token in reads:
                t = write_end[token]
                if t > ready:
                    ready = t
                    binding = write_unit[token]
            matrix_free = start = matrix
            if ready > start:
                start = ready
            for token in war:
                t = write_end[token]
                if t > start:
                    start = t
                t = read_end[token]
                if t > start:
                    start = t
            if flags & load_new_tile:
                if not fifo:
                    raise RuntimeError(_EMPTY_FIFO)
                tile_ready, tile_id = fifo.popleft()
                spec = tiles[tile_id]
                area = spec.rows * spec.cols
                shift_start = tile_ready if tile_ready > prev_mm_start else prev_mm_start
                pop_times.append(shift_start)
                shift_done = shift_start + shift_cycles
                if shift_done > start:
                    start = shift_done
                idle = start - matrix_free
                if idle > 0:
                    # Idle time splits into waiting for the tile's fetch,
                    # then for its shift; what is left waits on a token.
                    stall = (start if start < tile_ready else tile_ready) - matrix_free
                    if stall < 0.0:
                        stall = 0.0
                    shift = (start if start < shift_done else shift_done) - (
                        shift_start if shift_start > matrix_free else matrix_free
                    )
                    if shift < 0.0:
                        shift = 0.0
                    weight_stall += stall
                    weight_shift += shift
                    rest = idle - (stall + shift)
                    if rest > 0 and ready >= start - 1e-9:
                        if binding == "dma_in":
                            input_stall += rest
                        else:
                            raw_stall += rest
            else:
                area = dim2
                idle = start - matrix_free
                if idle > 0 and ready >= start - 1e-9:
                    if binding == "dma_in":
                        input_stall += idle
                    else:
                        raw_stall += idle
            end = matrix = start + duration
            prev_mm_start = start
            active += duration
            useful += duration * (area / dim2)
            macs += rows * area
            rows_streamed += rows
            if flags & convolve:
                n_convolve += 1
            else:
                n_matmul += 1
            unit = "matrix"
        elif op == read_weights:
            # Static tiles stream the full padded tile; dynamic tiles
            # (attention K^T/V staged through Weight Memory) move only
            # their packed bytes, and wait for the activations they stage.
            tile_id = operand
            spec = tiles.get(tile_id)
            if spec is not None and spec.dynamic:
                nbytes = spec.rows * spec.cols
                load_cycles = tile_load_cycles * nbytes / tile_bytes
            else:
                nbytes = tile_bytes
                load_cycles = tile_load_cycles
            start = dram
            # A full FIFO frees a slot when the matmul that pops its
            # oldest tile starts the shift; a fetch issued ahead of that
            # matmul takes the matrix unit's clock instead.
            if n_fetch >= fifo_depth:
                pop_index = n_fetch - fifo_depth
                slot_free = pop_times[pop_index] if pop_index < len(pop_times) else matrix
                if slot_free > start:
                    start = slot_free
            for token in reads:
                t = write_end[token]
                if t > start:
                    start = t
            end = dram = start + load_cycles
            fifo.append((end, tile_id))
            n_fetch += 1
            weight_bytes += nbytes
            unit = "dram"
        elif op == _ACTIVATE or op == _VECTOR:
            # The operand is the op's rows * lanes elements.
            if op == _ACTIVATE:
                duration = -(-operand // lanes)
                n_activate += 1
                activation_cycles += duration
                unit = "vector"
            else:
                kind = flags & VECTOR_KIND_BITS
                elements = operand * passes[kind]
                pooling = kind == VectorKind.POOL
                if pooling and pool_config:
                    elements *= pool_config["window"] ** 2
                duration = -(-elements // lanes)
                if pooling:
                    pooling_cycles += duration
                else:
                    activation_cycles += duration
                # Patch streaming runs on the floorplan's Systolic Data
                # Setup block, concurrent with the activation pipeline.
                unit = "setup" if kind == VectorKind.IM2COL else "vector"
            start = vector if unit == "vector" else setup
            for token in reads:
                t = write_end[token]
                if t > start:
                    start = t
            for token in war:
                t = write_end[token]
                if t > start:
                    start = t
                t = read_end[token]
                if t > start:
                    start = t
            end = start + duration
            if unit == "vector":
                vector = end
            else:
                setup = end
        elif op == _READ_HOST:
            nbytes = operand * ROW_BYTES
            duration = dma_seconds(nbytes) * clock
            n_read_host += 1
            pcie_in += nbytes
            dma_in_cycles += duration
            start = dma_in
            for token in war:
                t = write_end[token]
                if t > start:
                    start = t
                t = read_end[token]
                if t > start:
                    start = t
            end = dma_in = start + duration
            unit = "dma_in"
        elif op == _WRITE_HOST:
            nbytes = operand * ROW_BYTES
            duration = dma_seconds(nbytes) * clock
            n_write_host += 1
            pcie_out += nbytes
            dma_out_cycles += duration
            start = dma_out
            for token in reads:
                t = write_end[token]
                if t > start:
                    start = t
            end = dma_out = start + duration
            unit = "dma_out"
        elif op == _SYNC or op == _SYNC_HOST:
            n_sync += 1
            end = control = max(matrix, vector, setup, dma_in, dma_out, dram, control)
            unit = "control"
        elif op == _CONFIGURE or op == _DEBUG_TAG or op == _NOP or op == _INTERRUPT_HOST:
            if op == _NOP:
                n_nop += 1
            elif op == _CONFIGURE:
                instr = columns[issued - 1]  # rare: decode the one instruction
                if instr.key == Configure.KEY_POOLING:
                    pool_config = unpack_pooling_config(instr.value)
            end = control = control + 1
            unit = "control"
        elif op == _HALT:
            break
        else:
            raise ValueError(f"device cannot execute opcode {op}")
        for token in writes:
            write_end[token] = end
            write_unit[token] = unit
        for token in reads:
            if read_end[token] < end:
                read_end[token] = end

    total = max(matrix, vector, setup, dma_in, dma_out, dram, control)
    total = max(total, 1.0)
    for name, value in (
        ("instructions_issued", issued),
        ("read_weights_instructions", n_fetch),
        ("weight_tiles_loaded", n_fetch),
        ("weight_bytes_read", weight_bytes),
        ("macs_issued", macs),
        ("ops_committed", 2 * macs),
        ("rows_streamed", rows_streamed),
        ("matmul_instructions", n_matmul),
        ("convolve_instructions", n_convolve),
        ("activate_instructions", n_activate),
        ("activation_cycles", activation_cycles),
        ("pooling_cycles", pooling_cycles),
        ("read_host_instructions", n_read_host),
        ("pcie_bytes_in", pcie_in),
        ("dma_in_cycles", dma_in_cycles),
        ("write_host_instructions", n_write_host),
        ("pcie_bytes_out", pcie_out),
        ("dma_out_cycles", dma_out_cycles),
        ("sync_instructions", n_sync),
        ("nop_instructions", n_nop),
        ("total_cycles", total),
        ("array_active_cycles", active),
        ("useful_mac_cycles", useful),
        ("weight_stall_cycles", weight_stall),
        ("weight_shift_cycles", weight_shift),
    ):
        bank.add(name, value)
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
        useful_mac_weighted=min(useful, active),
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

    Holds the Unified Buffer tensors, the matrix unit and the
    accumulators, and shifts each weight tile in straight from
    ``program.tiles``.  Timing comes from the walk; this pass charges
    only the counters that need the data: ``ub_bytes_read``,
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
        for tile_id, spec in self.program.tiles.items():
            if spec.data is None:
                raise ValueError(
                    f"tile {tile_id} carries no data; compile with "
                    f"quantized parameters for functional runs"
                )
        image = self.program.weight_image_bytes
        if image > self.config.weight_dram_bytes:
            raise MemoryError(
                f"weight image of {image} B exceeds Weight Memory "
                f"(weight_dram_bytes = {self.config.weight_dram_bytes} B)"
            )

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
        the timing walk would raise for it.
        """
        fifo_ids: deque[int] = deque()
        for instr in self.program.instructions:
            if isinstance(instr, ReadWeights):
                fifo_ids.append(instr.tile_id)
            elif isinstance(instr, MatrixMultiply):
                spec = None
                if instr.load_new_tile:
                    if not fifo_ids:
                        raise RuntimeError(_EMPTY_FIFO)
                    spec = self.program.tiles[fifo_ids.popleft()]
                    self.matrix_unit.install_tile(spec.data)
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

    # -- matrix path --------------------------------------------------------
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
        codes = requantize(
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
