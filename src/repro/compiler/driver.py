"""The User Space driver: compile once, run at full speed thereafter.

Mirrors Section 2's software stack: the driver compiles a model the first
time it is evaluated (producing the program and weight images), and later
evaluations reuse the cached :class:`CompiledModel`.  The driver also owns
the host-side cost model -- PCIe payload plus a fixed per-batch driver
overhead -- which is what Table 5 reports relative to TPU time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs, perfcache
from repro.compiler.allocator import Allocation
from repro.compiler.lowering import Lowering
from repro.core.config import TPUConfig, TPU_V1
from repro.core.device import ExecutionResult, TPUDevice
from repro.isa.instructions import check_operand_widths
from repro.isa.program import TPUProgram
from repro.nn.graph import Model
from repro.nn.quantization import quantize
from repro.nn.reference import QuantizedParams, ReferenceExecutor, initialize_weights


@dataclass
class CompiledModel:
    """A model after its first evaluation: program + images + allocation."""

    model: Model
    program: TPUProgram
    allocation: Allocation
    config: TPUConfig
    params: QuantizedParams | None = None

    @property
    def ub_peak_bytes(self) -> int:
        return self.program.metadata["ub_peak_bytes"]

    def host_seconds_per_batch(self) -> float:
        """Host interaction time: PCIe payloads plus driver overhead.

        This is the Table 5 quantity -- the time the CPU and TPU spend
        communicating, not the CPU's own share of the application.
        Sequence models additionally synchronize with the host once per
        time step (decoding/beam-search interaction), which is why the
        paper's LSTMs show double-digit host fractions despite tiny
        payloads.
        """
        payload = (
            self.program.input_bytes_per_batch + self.program.output_bytes_per_batch
        )
        steps = max(layer.steps for layer in self.model.layers)
        syncs = 1 + (steps if steps > 1 else 0)
        return payload / self.config.pcie_bandwidth + syncs * self.config.host_overhead_s


class TPUDriver:
    """Compiles models and runs them on a (simulated) device."""

    #: Process-wide driver registry (one driver -- hence one compile
    #: cache -- per distinct TPUConfig); see :meth:`shared`.
    _shared: dict[TPUConfig, "TPUDriver"] = {}

    def __init__(self, config: TPUConfig = TPU_V1, allocator=None) -> None:
        self.config = config
        self.allocator = allocator
        self._cache: dict[tuple, CompiledModel] = {}

    @classmethod
    def shared(cls, config: TPUConfig = TPU_V1) -> "TPUDriver":
        """The process-wide driver for ``config``.

        Every analysis surface that evaluates the same (config, model)
        pair -- the platform wrapper, the Table 7 validation, the TPU'
        study -- gets the same driver and therefore the same compile
        cache, instead of each building a fresh driver and recompiling
        the six programs from scratch.
        """
        driver = cls._shared.get(config)
        if driver is None:
            driver = cls._shared[config] = cls(config)
        return driver

    # -- compilation ------------------------------------------------------
    def compile(
        self,
        model: Model,
        params: QuantizedParams | None = None,
        weight_bits: int = 8,
        activation_bits: int = 8,
    ) -> CompiledModel:
        """Compile for timing studies (no weight data unless ``params``).

        ``weight_bits``/``activation_bits`` select the Section 2 precision
        modes: 8b x 8b runs at full speed, mixed at half, 16b x 16b at a
        quarter (timing-only; the functional path is 8-bit).

        Two memos answer before the compiler runs: this driver's, per
        model and widths (a functional entry only for the very ``model``
        and ``params`` it was built from), and the process-wide
        :data:`repro.perfcache.GLOBAL_LOWERING`, keyed by config, model
        structure and batch alone, whose record replays at any operand
        width.  The widths are checked before either lookup, so a bad
        width raises the same ``ValueError`` on a hit as on a miss.
        """
        check_operand_widths(weight_bits, activation_bits)
        key = (
            model.name,
            model.batch_size,
            "fn" if params else "timing",
            weight_bits,
            activation_bits,
        )
        cached = self._cache.get(key)
        # Timing-mode entries match by value, so `replace(model,
        # batch_size=...)` curve probes reuse the cache; functional
        # entries match the model and its params (the weights) by
        # identity.
        if cached is not None and cached.params is params and (
            cached.model is model or (params is None and cached.model == model)
        ):
            return cached
        # Timing-mode compiles consult the process-wide emission memo:
        # hits replay the cached instruction stream at the requested
        # widths and re-run only the allocation pass (the allocator is
        # not part of the key either, so the Table 8 static-allocator
        # study hits entries the default driver populated).  Functional
        # compiles carry weight data and bypass.
        record = None
        lowering_state = "off"
        if params is None and perfcache.GLOBAL_LOWERING.enabled:
            lkey = perfcache.lowering_key(self.config, model)
            record = perfcache.GLOBAL_LOWERING.get(lkey)
            lowering_state = "hit" if record is not None else "miss"
        with obs.span(
            f"compile:{model.name}", cat="compiler",
            batch=model.batch_size, mode=key[2], lowering_cache=lowering_state,
        ):
            if record is not None:
                result = record.materialize(
                    self.allocator, self.config, weight_bits, activation_bits
                )
            else:
                lowering = Lowering(
                    model,
                    self.config,
                    params=params,
                    allocator=self.allocator,
                    weight_bits=weight_bits,
                    activation_bits=activation_bits,
                )
                result = lowering.lower()
                if lowering_state == "miss":
                    perfcache.GLOBAL_LOWERING.put(lkey, lowering.record)
        compiled = CompiledModel(
            model=model,
            program=result.program,
            allocation=result.allocation,
            config=self.config,
            params=params,
        )
        self._cache[key] = compiled
        return compiled

    def compile_functional(
        self,
        model: Model,
        weights: dict[str, np.ndarray] | None = None,
        calibration: np.ndarray | None = None,
        seed: int = 0,
    ) -> CompiledModel:
        """Compile with quantized weights for bit-exact functional runs."""
        weights = initialize_weights(model, seed) if weights is None else weights
        executor = ReferenceExecutor(model, weights)
        if calibration is None:
            rng = np.random.default_rng(seed + 1)
            calibration = rng.normal(
                0.0, 1.0, size=(min(model.batch_size, 4),) + model.input_shape
            ).astype(np.float32)
        params = executor.calibrate(calibration)
        return self.compile(model, params=params)

    # -- execution ---------------------------------------------------------
    def profile(self, compiled: CompiledModel) -> ExecutionResult:
        """Timing-only execution of one batch (memoized per program)."""
        if self.config == compiled.config:
            cached = getattr(compiled, "_profile_result", None)
            if cached is not None:
                return cached
        device = TPUDevice(self.config, functional=False)
        with obs.span(f"profile:{compiled.program.name}", cat="compiler"):
            result = device.run(compiled.program)
        if self.config == compiled.config:
            compiled._profile_result = result
        return result

    def run(
        self, compiled: CompiledModel, inputs: np.ndarray
    ) -> tuple[np.ndarray, ExecutionResult]:
        """Functional execution; returns (output codes, execution result)."""
        if compiled.params is None:
            raise ValueError(
                "compiled without quantized parameters; use compile_functional"
            )
        if inputs.shape[0] != compiled.model.batch_size:
            raise ValueError(
                f"expected batch {compiled.model.batch_size}, got {inputs.shape[0]}"
            )
        codes = quantize(np.asarray(inputs, dtype=np.float64), compiled.params.input_scale)
        device = TPUDevice(self.config, functional=True)
        result = device.run(compiled.program, host_input=codes)
        if result.output is None:
            raise RuntimeError("program produced no output (missing Write_Host_Memory?)")
        return result.output, result

    # -- end-to-end serving metrics ------------------------------------------
    def batch_seconds(self, compiled: CompiledModel, result: ExecutionResult) -> float:
        """Wall-clock per batch including the host share (Table 6 basis)."""
        return result.seconds + compiled.host_seconds_per_batch()

    def ips(self, compiled: CompiledModel, result: ExecutionResult) -> float:
        """End-to-end inferences/second including host overhead."""
        return compiled.model.batch_size / self.batch_seconds(compiled, result)

    def host_fraction(self, compiled: CompiledModel, result: ExecutionResult) -> float:
        """Host-interaction time as a fraction of TPU time (Table 5)."""
        return compiled.host_seconds_per_batch() / result.seconds
