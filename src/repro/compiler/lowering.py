"""Model -> TPUProgram lowering.

Conventions established here and honoured by the device:

* **Tensors are group-major matrices.**  A logical (rows, width) int8
  tensor occupies ``ceil(width/256)`` lane groups; group ``g`` is a block
  of ``rows`` 256-byte UB rows at ``base_row + g*rows``.  Sequence
  tensors are step-major: step ``t`` of a (B*T, F) tensor is rows
  ``[t*B, (t+1)*B)`` of every group.  Images are (B*H*W, C) matrices.
* **Accumulators ping-pong.**  Each matmul pass (one N-stripe of one row
  chunk) claims one of two banks, so the Activate draining pass ``i``
  overlaps the matmuls of pass ``i+1``.
* **Row chunking.**  Convolutions stream more rows than an accumulator
  bank holds; rows are cut into chunks of at most half the accumulator
  file, at the cost of re-reading the layer's weight tiles once per
  chunk (why more accumulators help a faster clock in Figure 11).
* **The systolic data setup buffer.**  im2col patch streams live in a
  dedicated two-bank setup region (Figure 1's "Systolic Data Setup"),
  addressed above :data:`SETUP_BASE`, outside the UB allocator.
* **Dependency sidecar.**  The compiler performs the interval analysis
  and attaches one ``(reads, writes, war)`` entry per instruction
  (``metadata["deps"]``, aligned with the instruction stream); the
  device's scoreboard consumes tokens in O(1), which keeps the timing
  simulation linear in program size.  Each entry is an exact tuple of
  three exact tuples of ints, in ascending token order.  The lowering
  cache keeps every sidecar for the life of the process, and CPython's
  collector untracks a tuple that holds only untracked objects, so
  cached entries cost nothing in later collections; a dataclass or
  ``NamedTuple`` entry is never untracked, and every full collection
  would walk all of them again.  The sidecar is sealed with the
  instruction columns, together with its token count (the tracker's
  next token), so the device sizes its scoreboard without flattening it.
* **Sealed columns.**  The emitters build instruction objects; when the
  record is created they are sealed once into the numpy columns of
  :class:`repro.isa.encoding.InstructionColumns` and dropped, so a
  cached record holds no instruction objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.compiler.allocator import Allocation, LivenessAllocator, Request
from repro.compiler.tiling import tile_grid
from repro.core.config import TPUConfig
from repro.isa.encoding import InstructionColumns, seal
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    Instruction,
    InterruptHost,
    MatrixMultiply,
    ROW_BYTES,
    ReadHostMemory,
    ReadWeights,
    SETUP_BANK_STRIDE,
    SETUP_BASE,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    check_operand_widths,
    pack_pooling_config,
)
from repro.isa.program import HostBufferSpec, ScaleEntry, TileSpec, TPUProgram
from repro.nn.graph import Model
from repro.nn.layers import (
    Activation,
    Conv2D,
    FullyConnected,
    LayerKind,
    LayerNorm,
    LSTMCell,
    MultiHeadAttention,
    Pooling,
    VectorOp,
)
from repro.nn.quantization import TensorScale
from repro.nn.reference import QuantizedParams, unsupported_functional_kinds

#: The paper: the Unified Buffer was sized so MLPs could run at batch
#: sizes up to 2048; the driver stages that many examples for all-FC apps.
MLP_STAGING_EXAMPLES = 2048

def groups_of(width: int) -> int:
    return math.ceil(width / ROW_BYTES)


@dataclass
class LoweredTensor:
    """A UB-resident tensor in group-major matrix form.

    ``base_row`` is a *virtual* row id: instruction addressing spans the
    full group-major footprint, while the allocator charges the packed
    byte size (narrow image tensors pack their channels instead of
    padding every row to 256 bytes).  The split mirrors how the hardware
    separates addressing from storage banking.
    """

    name: str
    rows: int
    width: int
    base_row: int = -1  # resolved after allocation

    @property
    def groups(self) -> int:
        return groups_of(self.width)

    @property
    def row_span(self) -> int:
        """Virtual UB rows the tensor's addressing occupies."""
        return self.rows * self.groups

    @property
    def nbytes(self) -> int:
        """Bytes charged to the Unified Buffer allocator.

        Matmul-fed tensors (width > 256) need 256-byte-aligned rows per
        lane group; narrow image tensors (width <= 256) are packed.
        """
        if self.width <= ROW_BYTES:
            return -(-self.rows * self.width // ROW_BYTES) * ROW_BYTES
        return self.rows * self.groups * ROW_BYTES

    def group_row(self, group: int, row_offset: int = 0) -> int:
        if self.base_row < 0:
            raise RuntimeError(f"tensor {self.name} not yet placed")
        return self.base_row + group * self.rows + row_offset


#: One instruction's sidecar entry: ``(reads, writes, war)`` token tuples
#: (device scoreboard input).
InstrDeps = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

#: The entry of an instruction with no token dependencies.
NO_DEPS: InstrDeps = ((), (), ())


class _DepTracker:
    """Interval -> token bookkeeping, resolved at compile time.

    Keys identify an address space (a tensor's lane group, an accumulator
    bank, a setup bank); ranges are row intervals within that space.
    Each key's live blocks ``(r0, r1, token)`` stay in allocation order,
    so every token tuple returned is ascending.  Callers pack the tuples
    into ``(reads, writes, war)`` sidecar entries: exact tuples of three
    exact int tuples, which the garbage collector untracks once the
    lowering cache holds them.  A dataclass or ``NamedTuple`` entry is
    never untracked, so every full collection would walk it again.
    """

    def __init__(self) -> None:
        self._next = 0
        self._blocks: dict[object, list[tuple[int, int, int]]] = {}

    def write(self, key: object, r0: int, r1: int) -> tuple[int, tuple[int, ...]]:
        """Register a write; returns (new token, WAR tokens displaced).

        One scan collects the token of every block the range overlaps
        and drops the blocks it covers whole; a partly overwritten block
        stays live, with its own rows, so later reads still see it.
        """
        if r1 <= r0:
            raise ValueError(f"empty write range [{r0}, {r1}) on {key!r}")
        war = []
        kept = []
        for block in self._blocks.get(key, ()):
            b0, b1, tok = block
            if b0 < r1 and r0 < b1:
                war.append(tok)
                if r0 <= b0 and b1 <= r1:
                    continue
            kept.append(block)
        token = self._next
        self._next += 1
        kept.append((r0, r1, token))
        self._blocks[key] = kept
        return token, tuple(war)

    def read(self, key: object, r0: int, r1: int) -> tuple[int, ...]:
        return tuple([tok for (b0, b1, tok) in self._blocks.get(key, ()) if b0 < r1 and r0 < b1])


@dataclass
class LoweringResult:
    program: TPUProgram
    allocation: Allocation


@dataclass(frozen=True)
class EmissionRecord:
    """The allocator- and width-independent half of one timing-mode lowering.

    Instruction addressing comes from a virtual bump cursor in tensor
    declaration order, so everything here -- instructions, dependency
    tokens, tiles, scales -- depends only on (model structure, batch,
    config).  The operand widths reach only the two width bits of each
    ``MatrixMultiply``'s flags, which :meth:`finish` sets when a consumer
    asks for other widths than the record's.  The allocator contributes
    nothing but the byte placement reported in the program metadata,
    which :meth:`finish` recomputes per consumer.  That split is what lets
    :data:`repro.perfcache.GLOBAL_LOWERING` replay one emission across
    fresh drivers, across allocator choices (the Table 8 study) and
    across the four Section 2 precision modes.

    Records are immutable and their parts are shared, never copied.  The
    stream is sealed columns (:class:`InstructionColumns`), not objects:
    a cache hit at the record's own widths returns a program on the very
    same columns the first compile sealed, so byte-identity of
    ``program.binary()`` is structural, not asserted.  A hit at other
    widths shares every column but the flags column, and the sidecar;
    the pinned programs of ``tests/test_paper_parity.py`` check those
    width siblings byte for byte.
    """

    name: str
    batch_size: int
    instructions: InstructionColumns
    tiles: dict[int, TileSpec]
    scales: tuple[ScaleEntry, ...]
    host_buffers: dict[int, HostBufferSpec]
    requests: tuple[Request, ...]
    #: Metadata entries minus the allocation-dependent pair
    #: (``ub_peak_bytes`` / ``allocator``), in canonical order.
    metadata_rest: dict

    def finish(
        self, allocation: Allocation, weight_bits: int, activation_bits: int
    ) -> LoweringResult:
        """Assemble the program around one allocation at the given widths."""
        metadata = {
            "model": self.name,
            "batch_size": self.batch_size,
            "ub_peak_bytes": allocation.peak_bytes,
            "allocator": allocation.allocator,
        }
        metadata.update(self.metadata_rest)
        program = TPUProgram(
            name=self.name,
            instructions=self.instructions.at_widths(weight_bits, activation_bits),
            tiles=self.tiles,
            scales=self.scales,
            host_buffers=self.host_buffers,
            batch_size=self.batch_size,
            metadata=metadata,
        )
        return LoweringResult(program=program, allocation=allocation)

    def materialize(
        self, allocator, config: TPUConfig, weight_bits: int, activation_bits: int
    ) -> LoweringResult:
        """Re-run only the allocation pass (the lowering-cache hit path)."""
        allocator = allocator if allocator is not None else LivenessAllocator()
        with obs.span(f"allocate:{self.name}", cat="compiler",
                      tensors=len(self.requests)):
            allocation = allocator.allocate(
                list(self.requests), config.unified_buffer_bytes
            )
        return self.finish(allocation, weight_bits, activation_bits)


class Lowering:
    """Single-use lowering context for one model."""

    def __init__(
        self,
        model: Model,
        config: TPUConfig,
        params: QuantizedParams | None = None,
        allocator=None,
        weight_bits: int = 8,
        activation_bits: int = 8,
    ) -> None:
        if config.matrix_dim != ROW_BYTES:
            raise NotImplementedError(
                "instruction-level lowering targets the 256-wide datapath; "
                "use repro.perfmodel for scaled matrix dimensions (as the "
                "paper's Section 7 study did)"
            )
        check_operand_widths(weight_bits, activation_bits)
        if params is not None and (weight_bits, activation_bits) != (8, 8):
            raise NotImplementedError(
                "functional execution is 8-bit; 16-bit modes are for timing "
                "studies (the paper's half/quarter-speed cases)"
            )
        if params is not None:
            unsupported = unsupported_functional_kinds(model)
            if unsupported:
                raise NotImplementedError(
                    f"{model.name}: attention/norm layers "
                    f"({', '.join(unsupported)}) compile on the timing path "
                    "only; the functional int8 contract covers the Table 1 "
                    "layer kinds"
                )
        for layer in model.layers:
            if isinstance(layer, MultiHeadAttention) and ROW_BYTES % layer.head_dim:
                raise NotImplementedError(
                    f"{model.name}: attention layer {layer.name} has head_dim "
                    f"{layer.head_dim}; each head's Q and context are addressed "
                    f"through one {ROW_BYTES}-lane group, so head_dim must "
                    f"divide {ROW_BYTES}"
                )
        self.model = model
        self.config = config
        self.params = params
        self.weight_bits = weight_bits
        self.activation_bits = activation_bits
        self.allocator = allocator if allocator is not None else LivenessAllocator()
        self.dim = config.matrix_dim
        self.acc_bank_rows = config.accumulator_rows // 2
        self._instructions: list[Instruction] = []
        self._deps: list[InstrDeps] = []
        self._tiles: dict[int, TileSpec] = {}
        self._scales: list[ScaleEntry] = []
        self._tensors: dict[str, LoweredTensor] = {}
        self._requests: list[Request] = []
        self._tracker = _DepTracker()
        self._pass_toggle = 0
        self._setup_toggle = 0
        self._unit_scale = TensorScale(1.0)
        #: Filled by :meth:`lower`; what the driver hands to the
        #: process-wide lowering cache.
        self.record: EmissionRecord | None = None
        # Instruction memos: frozen dataclasses compare by value, so an
        # equal instruction object is interchangeable in the stream (and
        # in ``binary()``) with a freshly built one, and ``seal`` computes
        # the fields of each distinct object once.
        self._rw_memo: dict[int, ReadWeights] = {}
        self._mm_memo: dict[tuple, MatrixMultiply] = {}

    # ------------------------------------------------------------------
    # scale helpers
    # ------------------------------------------------------------------
    def _layer_scales(self, index: int) -> tuple[TensorScale, TensorScale, TensorScale]:
        """(input, weight, output) scales for layer ``index``."""
        if self.params is None:
            return (self._unit_scale, self._unit_scale, self._unit_scale)
        layer = self.model.layers[index]
        in_scale = (
            self.params.input_scale
            if index == 0
            else self.params.output_scales[index - 1]
        )
        out_scale = self.params.output_scales[index]
        weight_scale = (
            self.params.weights[layer.name].scale
            if layer.name in self.params.weights
            else self._unit_scale
        )
        return in_scale, weight_scale, out_scale

    def _add_scale(self, entry: ScaleEntry) -> int:
        self._scales.append(entry)
        return len(self._scales) - 1

    # ------------------------------------------------------------------
    # tensor bookkeeping
    # ------------------------------------------------------------------
    def _declare(self, name: str, rows: int, width: int, start: int, end: int) -> LoweredTensor:
        if name in self._tensors:
            raise ValueError(f"tensor {name!r} declared twice")
        tensor = LoweredTensor(name=name, rows=rows, width=width)
        self._tensors[name] = tensor
        self._requests.append(Request(name=name, nbytes=tensor.nbytes, start=start, end=end))
        return tensor

    def _get_tensor(self, name: str) -> LoweredTensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"tensor {name!r} was never declared") from None

    def _matrix_shape(self, shape: tuple[int, ...]) -> tuple[int, int]:
        """(rows, width) of a batch of per-example ``shape`` tensors:
        rows, sequences and images flatten to (B, F), (B*T, F), (B*H*W, C)."""
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"unsupported tensor shape {shape}")
        return self.model.batch_size * math.prod(shape[:-1]), shape[-1]

    def _input_layout(self) -> str:
        return {1: "rows", 2: "sequence", 3: "image"}[len(self.model.input_shape)]

    def _last_use_steps(self) -> tuple[int, dict[int, int]]:
        """(input last-use step, per-layer-output last-use step).

        Steps: the input is defined at 0; layer i runs at step i+1.
        Residual skips extend the source tensor's live range to the
        consuming layer's step -- the mechanism behind CNN1's Table 8
        footprint.
        """
        n = len(self.model.layers)
        input_last = 1  # consumed by layer 0
        last = {i: min(i + 2, n) for i in range(n)}
        last[n - 1] = n  # the final output lives to the DMA-out step
        for dst, src in self.model.residual_sources.items():
            if src == -1:
                input_last = max(input_last, dst + 1)
            else:
                last[src] = max(last[src], dst + 1)
        return input_last, last

    # ------------------------------------------------------------------
    # dependency-token helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lane_groups(tensor: LoweredTensor, col0: int, lanes: int | None) -> range:
        """The lane groups that lanes ``[col0, col0 + lanes)`` of ``tensor``
        touch (all of its lanes when ``lanes`` is None).  Group ``g`` is the
        tracker key ``(tensor.name, g)``."""
        lanes = tensor.width if lanes is None else lanes
        return range(col0 // ROW_BYTES, min((col0 + lanes - 1) // ROW_BYTES, tensor.groups - 1) + 1)

    def _read_tensor_range(self, tensor: LoweredTensor, r0: int, rows: int, col0: int = 0, lanes: int | None = None) -> tuple[int, ...]:
        tokens: list[int] = []
        for g in self._lane_groups(tensor, col0, lanes):
            tokens.extend(self._tracker.read((tensor.name, g), r0, r0 + rows))
        return tuple(tokens)

    def _write_tensor_range(self, tensor: LoweredTensor, r0: int, rows: int, col0: int = 0, lanes: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
        writes: list[int] = []
        war: list[int] = []
        for g in self._lane_groups(tensor, col0, lanes):
            token, displaced = self._tracker.write((tensor.name, g), r0, r0 + rows)
            writes.append(token)
            war.extend(displaced)
        return tuple(writes), tuple(war)

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def _emit(self, instr: Instruction, deps: InstrDeps = NO_DEPS) -> None:
        """Append ``instr`` and its sidecar entry ``deps``.

        ``deps`` is ``(reads, writes, war)``: an exact tuple of three exact
        int tuples, never a dataclass or ``NamedTuple``.  The garbage
        collector untracks only exact tuples of untracked objects, and the
        lowering cache keeps every entry for the life of the process.
        """
        self._instructions.append(instr)
        self._deps.append(deps)

    def _next_acc_bank(self) -> int:
        bank = self._pass_toggle % 2
        self._pass_toggle += 1
        return bank * self.acc_bank_rows

    def _next_setup_bank(self) -> tuple[int, int]:
        bank = self._setup_toggle % 2
        self._setup_toggle += 1
        return SETUP_BASE + bank * SETUP_BANK_STRIDE, bank

    def _weight_tiles(
        self, layer_name: str, k: int, n: int, dynamic: bool = False
    ) -> dict[int, list[tuple[int, int, int, int, int]]]:
        """Register tiles; returns {n0: [(tile_id, k0, k_ext, n0, n_ext)]}.

        ``dynamic`` registers activation-sourced (dataless) tiles: one
        :class:`TileSpec` per coordinate, shared by every Read_Weights
        that re-stages it (attention reloads the same-shaped K^T/V
        blocks once per head per example), and marked so the weight path
        charges packed bytes, not the padded 64 KiB a trained tile
        streams.
        """
        weight = None
        if not dynamic and self.params is not None and layer_name in self.params.weights:
            weight = self.params.weights[layer_name].data
        # N-major grid: each column stripe's K tiles in turn, which
        # accumulate into one accumulator region; only functional compiles
        # slice per-tile weight data.
        dim = self.dim
        kt, nt = tile_grid(k, n, dim)
        k_coords = [(ki * dim, min(dim, k - ki * dim)) for ki in range(kt)]
        tiles = self._tiles
        stripes: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for ni in range(nt):
            n0 = ni * dim
            n_ext = min(dim, n - n0)
            stripe = stripes[n0] = []
            for k0, k_ext in k_coords:
                tile_id = len(tiles)
                data = None
                if weight is not None:
                    data = np.ascontiguousarray(weight[k0 : k0 + k_ext, n0 : n0 + n_ext])
                tiles[tile_id] = TileSpec(
                    tile_id=tile_id, rows=k_ext, cols=n_ext, data=data, dynamic=dynamic
                )
                stripe.append((tile_id, k0, k_ext, n0, n_ext))
        return stripes

    def _matmul_pass(
        self,
        stripe: list[tuple[int, int, int, int, int]],
        src_tokens_of_group,
        src_row_of_group,
        rows: int,
        acc_base: int,
        convolve: bool = False,
        rw_reads: tuple[int, ...] = (),
    ) -> None:
        """Emit the Read_Weights + MatrixMultiply K-loop of one stripe.

        ``rw_reads`` carries the tokens a *dynamic* tile's staging reads
        (the activations it is built from); static weight fetches have no
        UB dependencies.  The loop does as little Python per tile as the
        stream allows:

        * Read_Weights and MatrixMultiply values repeat heavily (an LSTM
          re-streams the same resident tiles over the same concat rows
          every step), so equal instructions are memoized -- frozen
          dataclasses make an equal object indistinguishable in the
          stream and in ``binary()``.
        * Every Read_Weights of a pass carries the same dependency tuple,
          and the accumulating K-steps (seq > 0) all read the same token
          set: nothing writes the accumulator range between them, so one
          ``_tracker.read`` serves them all.
        * The single accumulator write happens at seq == 0, which fixes
          the token allocation order.
        """
        instructions = self._instructions
        deps = self._deps
        rw_deps = (rw_reads, (), ())
        rw_memo = self._rw_memo
        mm_memo = self._mm_memo
        accumulate_reads: tuple[int, ...] | None = None
        for seq, (tile_id, k0, _k_ext, _n0, _n_ext) in enumerate(stripe):
            group = k0 // self.dim
            rw = rw_memo.get(tile_id)
            if rw is None:
                rw = rw_memo[tile_id] = ReadWeights(tile_id=tile_id)
            instructions.append(rw)
            deps.append(rw_deps)
            if seq == 0:
                acc_writes, acc_war = self._acc_write(acc_base, rows)
                acc_reads: tuple[int, ...] = ()
            else:
                if accumulate_reads is None:
                    # Accumulating writes read-modify-write the same rows.
                    accumulate_reads = self._tracker.read(
                        "acc", acc_base, acc_base + rows
                    )
                acc_reads = accumulate_reads
                acc_writes, acc_war = (), ()
            ub_row = src_row_of_group(group)
            mm_key = (ub_row, acc_base, rows, seq > 0, convolve)
            mm = mm_memo.get(mm_key)
            if mm is None:
                mm = mm_memo[mm_key] = MatrixMultiply(
                    ub_row=ub_row,
                    acc_row=acc_base,
                    rows=rows,
                    accumulate=seq > 0,
                    load_new_tile=True,
                    convolve=convolve,
                    weight_bits=self.weight_bits,
                    activation_bits=self.activation_bits,
                )
            instructions.append(mm)
            deps.append(
                (tuple(src_tokens_of_group(group)) + acc_reads, acc_writes, acc_war)
            )

    def _pass_inputs(self, src_t: LoweredTensor, r0: int, rows: int):
        """(tokens_of_group, ub_row_of_group) accessors for matmul passes
        streaming ``rows`` rows of ``src_t`` starting at ``r0``.

        Call sites hoist this out of their stripe loops: nothing writes
        the source tensor between the stripes of one row chunk, so every
        stripe's per-group token reads return identical tuples, read here
        once per chunk.
        """
        tokens = [
            self._read_tensor_range(src_t, r0, rows, g * ROW_BYTES, ROW_BYTES)
            for g in range(src_t.groups)
        ]
        ub_rows = [src_t.group_row(g, r0) for g in range(src_t.groups)]
        return tokens.__getitem__, ub_rows.__getitem__

    def _acc_write(self, acc_base: int, rows: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        token, war = self._tracker.write("acc", acc_base, acc_base + rows)
        return (token,), war

    def _acc_read(self, acc_base: int, rows: int) -> tuple[int, ...]:
        return self._tracker.read("acc", acc_base, acc_base + rows)

    def _row_chunk(self, total_rows: int, rows_per_example: int) -> int:
        """Rows per accumulator pass: at most one bank, cut to whole
        examples when one fits, so each chunk depends only on the
        examples it covers."""
        chunk = min(total_rows, self.acc_bank_rows, 65535)
        if rows_per_example <= chunk:
            chunk -= chunk % rows_per_example
        return chunk

    def _activate_stripes(
        self,
        stripes: dict[int, list[tuple[int, int, int, int, int]]],
        src_tokens_of_group,
        src_row_of_group,
        rows: int,
        out_t: LoweredTensor,
        out_row: int,
        scale_id: int,
        function: Activation,
        out_col: int = 0,
        convolve: bool = False,
        rw_reads: tuple[int, ...] = (),
    ) -> None:
        """The one matmul-stripe emitter: each N-stripe's K-loop runs
        through :meth:`_matmul_pass` into the next accumulator bank, and
        one Activate drains its ``n_ext`` lanes into ``out_t`` at row
        ``out_row``, lane ``out_col + n0``."""
        for n0, stripe in stripes.items():
            n_ext = stripe[0][4]
            acc_base = self._next_acc_bank()
            self._matmul_pass(
                stripe, src_tokens_of_group, src_row_of_group, rows, acc_base, convolve, rw_reads
            )
            acc_reads = self._acc_read(acc_base, rows)
            col = out_col + n0
            writes, war = self._write_tensor_range(out_t, out_row, rows, col, n_ext)
            self._emit(
                Activate(
                    acc_row=acc_base,
                    ub_row=out_t.group_row(col // self.dim, out_row),
                    rows=rows,
                    lanes=n_ext,
                    function=function,
                    scale_id=scale_id,
                ),
                (acc_reads, writes, war),
            )

    def _vector_op(
        self,
        src_t: LoweredTensor,
        dst_t: LoweredTensor,
        rows: int,
        lanes: int,
        reads: tuple[int, ...] | None = None,
        **fields,
    ) -> None:
        """The one whole-tensor vector emitter: a VectorInstruction that
        reads all of ``src_t`` (or the given ``reads`` tokens) and writes
        all of ``dst_t``; ``fields`` are its remaining operands."""
        if reads is None:
            reads = self._read_tensor_range(src_t, 0, src_t.rows)
        writes, war = self._write_tensor_range(dst_t, 0, dst_t.rows)
        self._emit(
            VectorInstruction(
                src_row=src_t.base_row, dst_row=dst_t.base_row, rows=rows, lanes=lanes, **fields
            ),
            (reads, writes, war),
        )

    # ------------------------------------------------------------------
    # per-layer lowering
    # ------------------------------------------------------------------
    def _lower_fc(self, index: int, layer: FullyConnected, in_t: LoweredTensor, out_t: LoweredTensor) -> None:
        batch = self.model.batch_size
        in_scale, w_scale, out_scale = self._layer_scales(index)
        scale_id = self._add_scale(ScaleEntry(in_scale, out_scale, w_scale))
        k, n = layer.matmul_shape

        src_t = in_t
        if in_t.width != k:
            # conv/pool -> FC transition: flatten into a staging tensor.
            if in_t.rows * in_t.width != batch * k:
                raise ValueError(
                    f"{layer.name}: cannot flatten {in_t.rows}x{in_t.width} into {batch}x{k}"
                )
            stage = self._get_tensor(f"{layer.name}.flat")
            copy_scale = self._add_scale(ScaleEntry(in_scale, in_scale))
            self._vector_op(
                in_t, stage, batch, min(k, 65535),
                kind=VectorKind.UNARY, scale_id=copy_scale, function=Activation.NONE,
            )
            src_t = stage

        stripes = self._weight_tiles(layer.name, k, n)
        if layer.tokens > 1:
            # Per-token projection (transformer FFN): every token row of
            # every example streams through the same resident tiles, so
            # the whole (batch * tokens) row block is chunked like a
            # convolution instead of looping time steps.
            self._emit_rows_matmul(
                stripes,
                src_t,
                out_t,
                total_rows=batch * layer.tokens,
                rows_per_example=layer.tokens,
                scale_id=scale_id,
                function=layer.activation,
            )
            return
        for t in range(layer.steps):
            row0 = t * batch if layer.steps > 1 else 0
            self._activate_stripes(
                stripes, *self._pass_inputs(src_t, row0, batch), batch,
                out_t, row0, scale_id, layer.activation,
            )

    def _emit_rows_matmul(
        self,
        stripes: dict[int, list[tuple[int, int, int, int, int]]],
        src_t: LoweredTensor,
        out_t: LoweredTensor,
        total_rows: int,
        rows_per_example: int,
        scale_id: int,
        function: Activation,
    ) -> None:
        """Stream ``total_rows`` of ``src_t`` through resident weight
        stripes into ``out_t``, chunked to the accumulator banks (the
        shared engine behind per-token FCs and attention projections)."""
        chunk = self._row_chunk(total_rows, rows_per_example)
        for r0 in range(0, total_rows, chunk):
            rows = min(chunk, total_rows - r0)
            self._activate_stripes(
                stripes, *self._pass_inputs(src_t, r0, rows), rows,
                out_t, r0, scale_id, function,
            )

    def _lower_attention(
        self, index: int, layer: MultiHeadAttention, in_t: LoweredTensor, out_t: LoweredTensor
    ) -> None:
        """Multi-head self-attention on a weight-stationary 256x256 MXU.

        Emission order mirrors :meth:`MultiHeadAttention.matmuls_per_example`:

        1. fused QKV projection (static tiles, all token rows chunked);
        2. per (head, example): stage K_h^T as a *dynamic* tile, score
           matmul, softmax (and causal mask-add) on the vector path;
        3. per (head, example): stage V_h, context matmul into the
           example-major ``.ctx`` scratch;
        4. one vector gather restoring step-major head-concat order;
        5. output projection (static tiles).

        Score/context operands are activations, so each (head, example)
        pair re-stages its tiles -- the tile-reload and 256-cycle-shift
        traffic this emits is exactly why small dynamic matmuls waste a
        big weight-stationary array (the Section 7 argument, replayed on
        a 2018 workload).  Functional execution is gated upstream; the
        emission is timing- and dependency-faithful.
        """
        batch = self.model.batch_size
        t, d = layer.seq_len, layer.embed_dim
        heads, dh = layer.num_heads, layer.head_dim
        in_scale, w_scale, out_scale = self._layer_scales(index)
        qkv_t = self._get_tensor(f"{layer.name}.qkv")
        score_ts = (
            self._get_tensor(f"{layer.name}.score0"),
            self._get_tensor(f"{layer.name}.score1"),
        )
        ctx_t = self._get_tensor(f"{layer.name}.ctx")
        cat_t = self._get_tensor(f"{layer.name}.cat")

        qkv_scale = self._add_scale(ScaleEntry(in_scale, in_scale, w_scale))
        score_scale = self._add_scale(ScaleEntry(in_scale, in_scale))
        out_scale_id = self._add_scale(ScaleEntry(in_scale, out_scale, w_scale))

        # 1. Fused QKV projection: (d, 3d) static tiles over all tokens.
        qkv_stripes = self._weight_tiles(f"{layer.name}.qkv_w", d, 3 * d)
        self._emit_rows_matmul(
            qkv_stripes, in_t, qkv_t,
            total_rows=batch * t, rows_per_example=t,
            scale_id=qkv_scale, function=Activation.NONE,
        )

        # 2-3. Per-head, per-example score and context matmuls.  Tile
        # shapes are shared; every (head, example) re-stages them.  Row
        # streams are cut to the accumulator bank like every other
        # matmul path (long sequences exceed the 2048-row bank).
        score_stripes = self._weight_tiles(f"{layer.name}.k", dh, t, dynamic=True)
        ctx_stripes = self._weight_tiles(f"{layer.name}.v", t, dh, dynamic=True)
        chunk = min(t, self.acc_bank_rows)
        for h in range(heads):
            # Head h's lanes: Q at q0, K at d + q0, V at 2d + q0.  The QKV
            # tensor is complete before these loops and never rewritten,
            # so its read tokens are loop-invariant per head.
            q0 = h * dh
            q_tokens = self._read_tensor_range(qkv_t, 0, qkv_t.rows, q0, dh)
            k_tokens = self._read_tensor_range(qkv_t, 0, qkv_t.rows, d + q0, dh)
            v_tokens = self._read_tensor_range(qkv_t, 0, qkv_t.rows, 2 * d + q0, dh)
            q_group = q0 // self.dim
            for b in range(batch):
                score_t = score_ts[(h * batch + b) % 2]
                # Score matmul: Q_h(example) @ staged K_h^T.
                for r0 in range(0, t, chunk):
                    rows = min(chunk, t - r0)
                    self._activate_stripes(
                        score_stripes,
                        lambda g: q_tokens,
                        lambda g: qkv_t.group_row(q_group, r0),
                        rows, score_t, r0, score_scale, Activation.NONE,
                        rw_reads=k_tokens,
                    )
                if layer.causal:
                    # Mask-add before softmax (no sparsity: full cost).
                    self._vector_op(
                        score_t, score_t, t, min(t, 65535),
                        kind=VectorKind.UNARY, scale_id=score_scale, function=Activation.NONE,
                    )
                # Softmax over each query row's scores.
                self._vector_op(
                    score_t, score_t, t, min(t, 65535),
                    kind=VectorKind.SOFTMAX, scale_id=score_scale,
                )
                # Context matmul: softmax(scores) @ staged V_h, written
                # example-major into head h's lanes of the ctx scratch.
                prob_tokens = self._read_tensor_range(score_t, 0, t)
                for r0 in range(0, t, chunk):
                    rows = min(chunk, t - r0)
                    self._activate_stripes(
                        ctx_stripes,
                        lambda g: prob_tokens,
                        lambda g: score_t.group_row(g, r0),
                        rows, ctx_t, b * t + r0, score_scale, Activation.NONE,
                        out_col=q0, rw_reads=v_tokens,
                    )

        # 4. Head-concat gather: restore step-major token order.
        self._vector_op(
            ctx_t, cat_t, min(ctx_t.rows, 65535), min(d, 65535),
            kind=VectorKind.UNARY, scale_id=score_scale, function=Activation.NONE,
        )

        # 5. Output projection: (d, d) static tiles.
        out_stripes = self._weight_tiles(f"{layer.name}.out_w", d, d)
        self._emit_rows_matmul(
            out_stripes, cat_t, out_t,
            total_rows=batch * t, rows_per_example=t,
            scale_id=out_scale_id, function=Activation.NONE,
        )

    def _lower_norm(
        self, index: int, layer: LayerNorm, in_t: LoweredTensor, out_t: LoweredTensor
    ) -> None:
        in_scale, _w, out_scale = self._layer_scales(index)
        scale_id = self._add_scale(ScaleEntry(in_scale, out_scale))
        self._vector_op(
            in_t, out_t, min(in_t.rows, 65535), min(in_t.width, 65535),
            kind=VectorKind.LAYER_NORM, scale_id=scale_id,
        )

    def _lower_conv(self, index: int, layer: Conv2D, in_t: LoweredTensor, out_t: LoweredTensor) -> None:
        batch = self.model.batch_size
        in_scale, w_scale, out_scale = self._layer_scales(index)
        scale_id = self._add_scale(ScaleEntry(in_scale, out_scale, w_scale))
        k, n = layer.matmul_shape
        h, w = layer.input_hw
        oh, ow = layer.out_hw
        out_rows = batch * oh * ow
        self._emit(
            Configure(
                key=Configure.KEY_CONV,
                value=pack_pooling_config(layer.kernel, layer.stride, h, w, layer.in_channels),
            )
        )
        stripes = self._weight_tiles(layer.name, k, n)
        # Example-aligned row chunks: a chunk's im2col then depends only on
        # the input rows of the examples it covers, so the setup engine
        # streams chunk c+1 of layer L while the matrix unit is still on
        # chunk c -- and layer L's first chunk starts as soon as layer
        # L-1's first chunk has been activated.
        per_example = oh * ow
        chunk = self._row_chunk(out_rows, per_example)
        setup_scale = self._add_scale(ScaleEntry(in_scale, in_scale))
        in_rows_per_example = h * w
        for r0 in range(0, out_rows, chunk):
            rows = min(chunk, out_rows - r0)
            b0 = r0 // per_example
            b1 = -(-(r0 + rows) // per_example)  # ceil
            src_reads = self._read_tensor_range(
                in_t, b0 * in_rows_per_example, (b1 - b0) * in_rows_per_example
            )
            setup_base, setup_bank = self._next_setup_bank()
            setup_token, setup_war = self._tracker.write(("setup", setup_bank), 0, rows)
            self._emit(
                VectorInstruction(
                    kind=VectorKind.IM2COL,
                    src_row=in_t.base_row,
                    dst_row=setup_base,
                    rows=rows,
                    lanes=min(k, 65535),
                    scale_id=setup_scale,
                    aux_id=r0,
                ),
                (src_reads, (setup_token,), setup_war),
            )
            self._activate_stripes(
                stripes,
                lambda g: (setup_token,),
                lambda g: setup_base + g * rows,
                rows, out_t, r0, scale_id, layer.activation,
                convolve=True,
            )

    def _lower_lstm(self, index: int, layer: LSTMCell, in_t: LoweredTensor, out_t: LoweredTensor) -> None:
        batch = self.model.batch_size
        in_scale, w_scale, out_scale = self._layer_scales(index)
        x_width = layer.input_size
        hidden = layer.hidden_size
        k, n = layer.matmul_shape  # (x + h, 4h)
        n_groups = groups_of(n)
        if n_groups * batch > self.acc_bank_rows:
            raise ValueError(
                f"{layer.name}: gate stripes need {n_groups * batch} accumulator "
                f"rows but a bank holds {self.acc_bank_rows}"
            )
        concat = self._get_tensor(f"{layer.name}.concat")
        h_state = self._get_tensor(f"{layer.name}.h")
        copy_scale = self._add_scale(ScaleEntry(in_scale, in_scale))
        gate_scale = self._add_scale(ScaleEntry(in_scale, out_scale, w_scale, aux_scale=in_scale))
        stripes = self._weight_tiles(layer.name, k, n)
        cell_key = f"c:{layer.name}"

        for t in range(layer.steps):
            row0 = t * batch
            # Gather x_t into the concat staging tensor.
            reads = self._read_tensor_range(in_t, row0, batch, 0, x_width)
            writes, war = self._write_tensor_range(concat, 0, batch, 0, x_width)
            self._emit(
                VectorInstruction(
                    kind=VectorKind.UNARY,
                    src_row=in_t.base_row + row0,
                    dst_row=concat.base_row,
                    rows=batch,
                    lanes=x_width,
                    scale_id=copy_scale,
                    aux_id=0,
                ),
                (reads, writes, war),
            )
            # Gather h_{t-1} beside it.
            reads = self._read_tensor_range(h_state, 0, batch)
            writes, war = self._write_tensor_range(concat, 0, batch, x_width, hidden)
            self._emit(
                VectorInstruction(
                    kind=VectorKind.UNARY,
                    src_row=h_state.base_row,
                    dst_row=concat.base_row,
                    rows=batch,
                    lanes=hidden,
                    scale_id=copy_scale,
                    aux_id=x_width,
                ),
                (reads, writes, war),
            )
            src_tokens, src_rows = self._pass_inputs(concat, 0, batch)
            acc_base = self._next_acc_bank()
            for n0, stripe in stripes.items():
                self._matmul_pass(
                    stripe,
                    src_tokens,
                    src_rows,
                    batch,
                    acc_base + (n0 // self.dim) * batch,
                )
            acc_reads = self._acc_read(acc_base, n_groups * batch)
            out_writes, out_war = self._write_tensor_range(out_t, row0, batch)
            h_writes, h_war = self._write_tensor_range(h_state, 0, batch)
            c_token, c_war = self._tracker.write(cell_key, 0, batch)
            c_reads = ()  # the WAR edge on cell_key already orders the chain
            self._emit(
                VectorInstruction(
                    kind=VectorKind.LSTM_GATE,
                    src_row=acc_base,
                    dst_row=out_t.base_row + row0,
                    rows=batch,
                    lanes=hidden,
                    scale_id=gate_scale,
                    aux_id=h_state.base_row,
                ),
                (
                    acc_reads + c_reads,
                    out_writes + h_writes + (c_token,),
                    out_war + h_war + c_war,
                ),
            )

    def _lower_vector(self, index: int, layer: VectorOp, in_t: LoweredTensor, out_t: LoweredTensor) -> None:
        in_scale, _w, out_scale = self._layer_scales(index)
        scale_id = self._add_scale(ScaleEntry(in_scale, out_scale))
        self._vector_op(
            in_t, out_t, min(in_t.rows, 65535), min(in_t.width, 65535),
            kind=VectorKind.UNARY, scale_id=scale_id, function=layer.op,
        )

    def _lower_pool(self, index: int, layer: Pooling, in_t: LoweredTensor, out_t: LoweredTensor, in_shape: tuple[int, ...]) -> None:
        in_scale, _w, out_scale = self._layer_scales(index)
        scale_id = self._add_scale(ScaleEntry(in_scale, out_scale))
        h, w, c = in_shape
        self._emit(
            Configure(
                key=Configure.KEY_POOLING,
                value=pack_pooling_config(layer.window, layer.stride, h, w, c),
            )
        )
        self._vector_op(
            in_t, out_t, min(out_t.rows, 65535), min(out_t.width, 65535),
            kind=VectorKind.POOL, scale_id=scale_id, function=Activation.NONE,
        )

    def _lower_residual(self, dst_index: int, out_t: LoweredTensor, skip_t: LoweredTensor, skip_scale: TensorScale) -> None:
        _in, _w, out_scale = self._layer_scales(dst_index)
        scale_id = self._add_scale(ScaleEntry(out_scale, out_scale, aux_scale=skip_scale))
        reads = self._read_tensor_range(out_t, 0, out_t.rows) + self._read_tensor_range(skip_t, 0, skip_t.rows)
        self._vector_op(
            out_t, out_t, min(out_t.rows, 65535), min(out_t.width, 65535), reads=reads,
            kind=VectorKind.RESIDUAL_ADD, scale_id=scale_id, aux_id=skip_t.base_row,
        )

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def lower(self) -> LoweringResult:
        """Declare, allocate (fail-fast on UB overflow), then emit.

        The emission half lands in :attr:`record` so the driver can
        publish it to the process-wide lowering cache; cache hits later
        call :meth:`EmissionRecord.materialize`, re-running only the
        allocation this method performs inline.
        """
        input_t, layer_tensors = self._declare_tensors()
        with obs.span(f"allocate:{self.model.name}", cat="compiler",
                      tensors=len(self._requests)):
            allocation = self.allocator.allocate(
                self._requests, self.config.unified_buffer_bytes
            )
        self.record = self._emit_record(input_t, layer_tensors)
        return self.record.finish(allocation, self.weight_bits, self.activation_bits)

    def _declare_tensors(self) -> tuple[LoweredTensor, list[LoweredTensor]]:
        """Pass 1: declare tensors and collect allocation requests."""
        model = self.model
        n_layers = len(model.layers)
        input_last, last_use = self._last_use_steps()
        input_t = self._declare("input", *self._matrix_shape(model.input_shape), 0, input_last)
        layer_tensors = [
            self._declare(f"L{i}.{layer.name}", *self._matrix_shape(shape), i + 1, last_use[i])
            for i, (layer, shape) in enumerate(zip(model.layers, model.shapes()))
        ]
        self._declare_staging(input_t, layer_tensors[-1], n_layers)
        self._predeclare_scratch()
        return input_t, layer_tensors

    def _emit_record(
        self, input_t: LoweredTensor, layer_tensors: list[LoweredTensor]
    ) -> EmissionRecord:
        """Pass 2: place virtual rows and emit the instruction stream."""
        model = self.model
        batch = model.batch_size
        # Virtual row numbering: a bump cursor in declaration order keeps
        # every tensor's addressing span disjoint; byte placement (and the
        # Table 8 footprint) comes from the allocator, which feeds only
        # the program metadata -- never the instruction stream.
        cursor = 0
        for tensor in self._tensors.values():
            tensor.base_row = cursor
            cursor += tensor.row_span
        if cursor >= SETUP_BASE:
            raise MemoryError(
                f"virtual row space exhausted: {cursor} rows >= {SETUP_BASE}"
            )

        # Pass 2: emit instructions.
        host_buffers = {
            0: HostBufferSpec(0, "input", "in", batch * model.input_elements_per_example),
            1: HostBufferSpec(1, "output", "out", batch * model.output_elements_per_example),
        }
        in_writes, in_war = self._write_tensor_range(input_t, 0, input_t.rows)
        self._emit(
            ReadHostMemory(buffer_id=0, ub_row=input_t.base_row, rows=input_t.nbytes // ROW_BYTES),
            ((), in_writes, in_war),
        )
        shapes = model.shapes()
        current = input_t
        current_shape: tuple[int, ...] = model.input_shape
        for i, layer in enumerate(model.layers):
            self._emit(DebugTag(tag=i))
            out_t = layer_tensors[i]
            with obs.span(f"pass:{model.name}.{layer.name}", cat="compiler",
                          kind=type(layer).__name__, layer=i):
                if isinstance(layer, FullyConnected):
                    self._lower_fc(i, layer, current, out_t)
                elif isinstance(layer, Conv2D):
                    self._lower_conv(i, layer, current, out_t)
                elif isinstance(layer, LSTMCell):
                    self._lower_lstm(i, layer, current, out_t)
                elif isinstance(layer, VectorOp):
                    self._lower_vector(i, layer, current, out_t)
                elif isinstance(layer, Pooling):
                    self._lower_pool(i, layer, current, out_t, current_shape)
                elif isinstance(layer, MultiHeadAttention):
                    self._lower_attention(i, layer, current, out_t)
                elif isinstance(layer, LayerNorm):
                    self._lower_norm(i, layer, current, out_t)
                else:
                    raise TypeError(f"cannot lower layer {layer!r}")
            src = model.residual_sources.get(i)
            if src is not None:
                skip_t = input_t if src == -1 else layer_tensors[src]
                if self.params is None:
                    skip_scale = self._unit_scale
                elif src == -1:
                    skip_scale = self.params.input_scale
                else:
                    skip_scale = self.params.output_scales[src]
                self._lower_residual(i, out_t, skip_t, skip_scale)
            current = out_t
            current_shape = shapes[i]
        out_reads = self._read_tensor_range(current, 0, current.rows)
        self._emit(
            WriteHostMemory(buffer_id=1, ub_row=current.base_row, rows=current.nbytes // ROW_BYTES),
            (out_reads, (), ()),
        )
        self._emit(SyncHost())
        self._emit(InterruptHost())
        self._emit(Halt())

        tensor_table = {
            t.name: (t.base_row, t.rows, t.width) for t in self._tensors.values()
        }
        deps = tuple(self._deps)
        instructions = seal(self._instructions, deps, self._tracker._next)
        metadata_rest = {
            "macs_per_batch": model.macs_per_batch,
            "input_layout": self._input_layout(),
            "input_shape": model.input_shape,
            "output_shape": model.output_shape,
            "tensors": tensor_table,
            "deps": deps,
        }
        return EmissionRecord(
            name=model.name,
            batch_size=batch,
            instructions=instructions,
            tiles=self._tiles,
            scales=tuple(self._scales),
            host_buffers=host_buffers,
            requests=tuple(self._requests),
            metadata_rest=metadata_rest,
        )

    def _declare_staging(self, input_t: LoweredTensor, output_t: LoweredTensor, n_layers: int) -> None:
        """Reserve the driver's batch-staging region for all-FC models.

        The Unified Buffer was sized to let MLPs run at batch sizes up to
        2048 (Section 7): the driver keeps that many examples of input
        and output staged so host DMA runs far ahead of compute.
        Sequence and CNN apps are latency-bound and stage only the live
        batch.
        """
        batch = self.model.batch_size
        if all(layer.kind is LayerKind.FC for layer in self.model.layers):
            extra = min(MLP_STAGING_EXAMPLES, 10 * batch) - batch
        elif any(layer.kind is LayerKind.LSTM for layer in self.model.layers):
            extra = batch  # double-buffer one batch of sequences each way
        else:
            extra = 0  # CNNs are compute-bound; the live batch suffices
        if extra <= 0:
            return
        in_rows = input_t.rows // batch * extra
        out_rows = output_t.rows // batch * extra
        stage_in = LoweredTensor("staging.in", in_rows, input_t.width)
        stage_out = LoweredTensor("staging.out", out_rows, output_t.width)
        self._tensors["staging.in"] = stage_in
        self._requests.append(Request("staging.in", stage_in.nbytes, 0, n_layers))
        self._tensors["staging.out"] = stage_out
        self._requests.append(Request("staging.out", stage_out.nbytes, 0, n_layers))

    def _predeclare_scratch(self) -> None:
        """Declare the scratch tensors the emitters will reference."""
        batch = self.model.batch_size
        shapes = self.model.shapes()
        for i, layer in enumerate(self.model.layers):
            if isinstance(layer, LSTMCell):
                k = layer.input_size + layer.hidden_size
                self._declare(f"{layer.name}.concat", batch, k, i + 1, i + 1)
                self._declare(f"{layer.name}.h", batch, layer.hidden_size, i + 1, i + 1)
            elif isinstance(layer, MultiHeadAttention):
                t, d = layer.seq_len, layer.embed_dim
                self._declare(f"{layer.name}.qkv", batch * t, 3 * d, i + 1, i + 1)
                # Ping-pong score scratch: softmax of pass p overlaps the
                # score matmul of pass p+1 (same trick as the setup banks).
                self._declare(f"{layer.name}.score0", t, t, i + 1, i + 1)
                self._declare(f"{layer.name}.score1", t, t, i + 1, i + 1)
                self._declare(f"{layer.name}.ctx", batch * t, d, i + 1, i + 1)
                self._declare(f"{layer.name}.cat", batch * t, d, i + 1, i + 1)
            elif isinstance(layer, FullyConnected):
                in_shape = self.model.input_shape if i == 0 else shapes[i - 1]
                in_width = in_shape[-1]
                flat = math.prod(in_shape)
                if (
                    layer.steps == 1
                    and in_width != layer.in_features
                    and flat == layer.in_features
                ):
                    self._declare(f"{layer.name}.flat", batch, layer.in_features, i + 1, i + 1)
