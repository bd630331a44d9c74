"""Reference implementations that the production paths are checked against.

Every layer under ``src/`` has one production path.  The plainer loops
those paths replaced live here as test-only oracles, so each parity test
compares the production path with a second, live implementation:

* :class:`ReferenceLowering` -- per-tile emission: one ``TileCoord`` per
  weight tile, a freshly built instruction and accumulator read per
  K-step, and lazy per-tile source-token reads;
* :func:`reference_closed_loop` -- closed-loop load generation with one
  Python step per request slot;
* :func:`withhold_timing_plan` -- stands in for
  ``repro.core.device._timing_plan_for``, so timing runs take the
  device's per-instruction loop (the fallback a malformed stream takes);
* :func:`no_bulk_admission` -- stands in for ``FleetSim._bulk_admit``
  with its "window too small" answer, so every arrival takes the
  per-arrival admission path;
* :func:`no_batch_scan` -- stands in for ``FleetSim._scan_applies``, so
  round-robin fixed/timeout fleets take the per-arrival event loop
  instead of the per-batch scan;
* :func:`reference_stride_assign` -- the globe exact backend's stride
  scheduler over a numpy credit vector, one ``argmax`` per arrival;
* :class:`PerTokenLLMSim` -- the LLM decode engine with per-token
  bookkeeping: every iteration walks its running batch to bump each
  request's cache, emitted count and token-time list, every arrival is
  its own event-loop closure, and TPOT is one ``np.diff`` per request.

:func:`install` routes a whole process through the first three, for
checks that render paper tables end to end in a fresh interpreter.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro import obs
from repro.compiler.lowering import InstrDeps, Lowering, LoweredTensor, ROW_BYTES
from repro.compiler.tiling import tile_matmul
from repro.isa.instructions import MatrixMultiply, ReadWeights
from repro.isa.program import TileSpec
from repro.serving.continuous import ContinuousBatchingSim, _Chip, _LLMRequest
from repro.serving.engine import BatchServer, EventLoop, LatencyCurve


class ReferenceLowering(Lowering):
    """:class:`Lowering` with the per-tile emission loop."""

    def _weight_tiles(self, layer_name, k, n, dynamic=False):
        weight = None
        if not dynamic and self.params is not None and layer_name in self.params.weights:
            weight = self.params.weights[layer_name].data
        stripes: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for coord in tile_matmul(k, n, self.dim):
            tile_id = len(self._tiles)
            data = None
            if weight is not None:
                data = np.ascontiguousarray(
                    weight[coord.k0 : coord.k0 + coord.k, coord.n0 : coord.n0 + coord.n]
                )
            self._tiles[tile_id] = TileSpec(
                tile_id=tile_id, rows=coord.k, cols=coord.n, data=data, dynamic=dynamic
            )
            stripes.setdefault(coord.n0, []).append(
                (tile_id, coord.k0, coord.k, coord.n0, coord.n)
            )
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
            self._emit(ReadWeights(tile_id=tile_id), InstrDeps(reads=rw_reads))
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
                InstrDeps(
                    reads=tuple(src_tokens_of_group(group)) + acc_reads,
                    writes=acc_writes,
                    war=acc_war,
                ),
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


def withhold_timing_plan(program, config):
    """No timing plan: the device falls back to its per-instruction loop."""
    return None


def no_bulk_admission(sim, i, top_when):
    """Admit nothing in bulk: every arrival takes the per-arrival path."""
    return i


def no_batch_scan(sim):
    """Never scan per batch: every fleet takes the per-arrival event loop."""
    return False


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
        self.loop.run()
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
            if obs.TRACER.enabled:
                obs.TRACER.sim_span(
                    f"iter b{active}", now, step, cat="llm",
                    tid=chip.index, batch=active, kv=chip.kv_used,
                )
            if obs.REGISTRY.enabled:
                obs.counter("llm.iterations").inc()
                obs.gauge("llm.kv_tokens").set(chip.kv_used)
                obs.histogram("llm.kv_occupancy").observe(
                    chip.kv_used / cfg.kv_capacity
                )
                obs.histogram("llm.iteration_batch").observe(active)
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
        if obs.REGISTRY.enabled:
            obs.counter("llm.tokens").inc(len(chip.running))
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

    Patches module attributes in place and never undoes them, so call it
    only in a fresh interpreter.  ``Lowering`` and ``run_closed_loop`` are
    bound by name in ``repro.compiler.driver`` and
    ``repro.latency.queueing`` at import, so those bindings are the ones
    replaced.
    """
    from repro.compiler import driver
    from repro.core import device
    from repro.latency import queueing

    fired: Counter = Counter()

    class CountingLowering(ReferenceLowering):
        def _matmul_pass(self, *args, **kwargs):
            fired["lowering"] += 1
            super()._matmul_pass(*args, **kwargs)

    def device_loop(program, config):
        fired["device"] += 1
        return withhold_timing_plan(program, config)

    def closed_loop(*args, **kwargs):
        fired["closed_loop"] += 1
        return reference_closed_loop(*args, **kwargs)

    driver.Lowering = CountingLowering
    device._timing_plan_for = device_loop
    queueing.run_closed_loop = closed_loop
    return fired
