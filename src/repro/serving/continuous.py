"""Iteration-level (continuous) batching for transformer decode.

The paper's Table 4 charges the 99th-percentile SLO against *request*
batches: a batch launches, runs to completion, and only then admits new
work.  Autoregressive decode breaks that model -- one request may need
12 tokens and its neighbor 70, so request-level gangs strand batch slots
exactly where the weight-streaming economics (intensity ``~ batch``,
see ``transformer_roofline``) punish it most.  This module schedules at
*token-iteration* granularity instead:

* every iteration emits one token for each running request, costs the
  full weight stream once, and is priced by
  :class:`repro.platforms.kv.DecodeTiming`;
* requests join and leave the running batch between iterations, subject
  to the KV-cache budget of
  :func:`repro.platforms.kv.kv_capacity_tokens` -- the Unified Buffer
  treated the way the compiler treats activation overflow: a request
  that no longer fits is *evicted to the head of the queue* (its cache
  is rebuilt on re-admission), never dropped;
* ``scheduler="fixed"`` keeps the same engine but only admits into an
  empty batch, reproducing the request-level gang as the baseline;
* ``mode="disaggregated"`` splits the fleet into a prefill pool and a
  decode pool joined by a KV transfer hop, each pool optionally driven
  by its own autoscaler (:mod:`repro.datacenter.llm_pools`).

The scheduler is validated against an independently written per-request
event simulation (:mod:`repro.serving.llm_reference`) within
:data:`LLM_VALIDATION_RTOL`, mirroring the hybrid-vs-exact pattern of
:mod:`repro.globe`.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.platforms.kv import (
    DecodeTiming,
    kv_bytes_per_token,
    kv_capacity_tokens,
    kv_transfer_seconds,
)
from repro.serving.engine import reject_first
from repro.util.units import MIB

#: Pinned relative tolerance between the continuous scheduler and the
#: per-request reference simulation (tests/test_llm.py enforces it; the
#: two implementations share only the closed-form timing arithmetic).
LLM_VALIDATION_RTOL = 5e-3


def _length_bounds(mean: int) -> tuple[int, int]:
    """The uniform integer sampling window ``[mean - mean//2, mean + mean//2]``."""
    return max(1, mean - mean // 2), mean + mean // 2


def sample_llm_requests(
    n: int,
    rate_rps: float,
    prompt_mean: int,
    decode_mean: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Poisson arrivals with uniform prompt/decode lengths."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    plo, phi = _length_bounds(prompt_mean)
    dlo, dhi = _length_bounds(decode_mean)
    prompts = rng.integers(plo, phi + 1, size=n).astype(np.int64)
    decodes = rng.integers(dlo, dhi + 1, size=n).astype(np.int64)
    return arrivals, prompts, decodes


@dataclass(frozen=True)
class ContinuousConfig:
    """Everything the iteration-level engine needs to price a run."""

    timing: DecodeTiming
    kv_capacity: int
    kv_bytes_per_token: int
    chips: int = 1
    max_batch: int = 32
    scheduler: str = "continuous"  # continuous | fixed
    mode: str = "aggregated"  # aggregated | disaggregated
    prefill_chips: int = 1
    prefill_batch: int = 8
    transfer_rtt_s: float = 2e-4
    transfer_bytes_per_s: float = 12.5e9
    #: Optional per-pool controllers (see :mod:`repro.datacenter.llm_pools`);
    #: duck-typed: ``interval_s``, ``spinup_s``, ``min_chips``, ``desired()``.
    prefill_controller: object | None = None
    decode_controller: object | None = None


def build_llm_config(scenario, **controllers) -> ContinuousConfig:
    """Resolve an ``LLMServeScenario`` into a :class:`ContinuousConfig`."""
    from repro.core.config import TPU_V1
    from repro.nn.workloads import build_workload

    model = build_workload(scenario.workload)
    timing = DecodeTiming.for_model(model, TPU_V1)
    reserve = int(scenario.kv_reserve_mib * MIB)
    capacity = kv_capacity_tokens(model, TPU_V1, reserve_bytes=reserve)
    _, phi = _length_bounds(scenario.prompt_tokens)
    _, dhi = _length_bounds(scenario.decode_tokens)
    if phi + dhi + 1 > capacity:
        raise ValueError(
            f"one request can exceed the KV budget: up to {phi + dhi} cached "
            f"tokens vs capacity {capacity} ({scenario.workload}, "
            f"{scenario.kv_reserve_mib:g} MiB reserved); shrink "
            "prompt_tokens/decode_tokens or kv_reserve_mib"
        )
    return ContinuousConfig(
        timing=timing,
        kv_capacity=capacity,
        kv_bytes_per_token=kv_bytes_per_token(model),
        chips=scenario.chips,
        max_batch=scenario.max_batch,
        scheduler=scenario.scheduler,
        mode=scenario.mode,
        prefill_chips=scenario.prefill_chips,
        prefill_batch=scenario.prefill_batch,
        transfer_rtt_s=scenario.transfer_ms * 1e-3,
        transfer_bytes_per_s=scenario.link_gbps * 1e9 / 8.0,
        **controllers,
    )


def full_decode_step(
    cfg: ContinuousConfig, prompt_mean: int, decode_mean: int
) -> tuple[int, float]:
    """``(batch, seconds)`` of one chip's decode iteration at full batch.

    The batch is as many requests at the mean cache length (the prompt
    plus half the decode, plus one) as the KV budget holds, capped at
    ``max_batch``.  :func:`fleet_capacity_tokens_per_s` and the decode
    pool's autoscaler (``datacenter.llm_pools.decode_chip_rps``) both
    size from it.
    """
    mean_kv = prompt_mean + decode_mean // 2 + 1
    batch = min(cfg.max_batch, max(1, cfg.kv_capacity // mean_kv))
    return batch, cfg.timing.iteration_seconds(batch, batch * mean_kv)


def fleet_capacity_tokens_per_s(
    cfg: ContinuousConfig, prompt_mean: int, decode_mean: int
) -> float:
    """Ideal steady-state decode-pool token throughput (sizing anchor)."""
    batch, step = full_decode_step(cfg, prompt_mean, decode_mean)
    return cfg.chips * batch / step


class _LLMRequest:
    """Mutable per-request record inside one simulation run.

    While the request runs, ``start`` is the index of the chip iteration
    that admitted it; ``emitted`` is written back only when that
    residency closes (eviction or finish), never once per token.
    """

    __slots__ = (
        "index", "arrival", "prompt", "decode",
        "emitted", "prefills", "evictions", "start",
    )

    def __init__(self, index: int, arrival: float, prompt: int, decode: int):
        self.index = index
        self.arrival = arrival
        self.prompt = prompt
        self.decode = decode
        self.emitted = 0
        self.prefills = 0
        self.evictions = 0
        self.start = 0


class _Chip:
    """One accelerator in a pool: running set, KV ledger, power state.

    ``log`` holds the end time of every decode iteration the chip has
    run, so ``len(log)`` is the index of the next one; ``finishing`` maps
    an iteration index to the running requests whose last token it emits.
    """

    __slots__ = (
        "index", "running", "kv_used", "idle", "enabled", "spinning",
        "busy_seconds", "powered_since", "powered_seconds",
        "log", "finishing",
    )

    def __init__(self, index: int, enabled: bool):
        self.index = index
        self.running: list[int] = []
        self.kv_used = 0
        self.idle = True
        self.enabled = enabled
        self.spinning = False
        self.busy_seconds = 0.0
        self.powered_since: float | None = 0.0 if enabled else None
        self.powered_seconds = 0.0
        self.log: list[float] = []
        self.finishing: defaultdict[int, list[int]] = defaultdict(list)

    def power_off(self, now: float) -> None:
        if self.powered_since is not None:
            self.powered_seconds += now - self.powered_since
            self.powered_since = None

    def power_on(self, now: float) -> None:
        if self.powered_since is None:
            self.powered_since = now


class _Pool:
    """A named chip pool plus the rolling stats its controller reads."""

    def __init__(self, name: str, size: int, controller) -> None:
        self.name = name
        self.controller = controller
        start = size if controller is None else min(controller.min_chips, size)
        self.chips = [_Chip(i, enabled=i < start) for i in range(size)]
        self.window_arrivals = 0
        self.window_busy = 0.0

    def active(self) -> int:
        return sum(1 for c in self.chips if c.enabled)

    def spinning(self) -> int:
        return sum(1 for c in self.chips if c.spinning)


@dataclass
class LLMRunResult:
    """Raw per-request outcome of one simulated trace (see ``llm_row``)."""

    arrivals: np.ndarray
    prompts: np.ndarray
    decodes: np.ndarray
    first_token: np.ndarray
    finish: np.ndarray
    emitted: np.ndarray
    prefills: np.ndarray
    evictions_per_request: np.ndarray
    tpot_intervals: np.ndarray
    horizon: float
    tokens: int
    iterations: int
    token_batch_sum: int
    evictions: int
    transfers: int
    prefill_batches: int
    kv_peak: int
    kv_capacity: int
    decode_busy_seconds: float
    prefill_busy_seconds: float
    decode_chip_seconds: float
    prefill_chip_seconds: float


def _integers(name: str, values, low: int) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    reject_first(name, values, values < low, f"an integer >= {low}")
    return values.astype(np.int64)


def _validated_trace(
    arrivals, prompts, decodes, kv_capacity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``run``'s arrays as float64/int64, or a ``ValueError`` naming the
    argument and its first bad index."""
    arrivals = np.asarray(arrivals, dtype=float)
    n = len(arrivals)
    if n == 0:
        raise ValueError("arrivals is empty: a trace needs at least one request")
    for name, values in (("prompts", prompts), ("decodes", decodes)):
        if len(values) != n:
            raise ValueError(
                f"{name} has {len(values)} entries but arrivals has {n}: "
                "give one per request"
            )
    ok = np.isfinite(arrivals) & (arrivals >= 0)
    reject_first("arrivals", arrivals, ~ok, "a finite time >= 0 s")
    prompts = _integers("prompts", prompts, low=0)
    decodes = _integers("decodes", decodes, low=1)
    too_big = prompts + decodes + 1 > kv_capacity
    if too_big.any():
        i = int(np.argmax(too_big))
        raise ValueError(
            f"one request can exceed the KV budget: request {i} caches up to "
            f"{prompts[i] + decodes[i]} tokens (prompts[{i}] + decodes[{i}]) "
            f"vs capacity {kv_capacity}; shrink its prompt or decode length "
            "or the KV reserve"
        )
    return arrivals, prompts, decodes


class ContinuousBatchingSim:
    """The iteration-level engine (both schedulers, both fleet modes).

    An iteration costs O(1) bookkeeping however large its batch: each
    chip appends the iteration's end time to its ``log``, a running
    request holds only the index of the iteration that admitted it, and
    the requests whose last token an iteration emits are found through
    the chip's ``finishing`` index.  A request's emitted count, cache
    length and token times follow from that index and the chip log; they
    are written when it is evicted or finishes (:meth:`_close`), and
    :meth:`_finalize` gathers every token time from the logs at once.
    """

    def __init__(self, cfg: ContinuousConfig) -> None:
        if cfg.scheduler not in ("continuous", "fixed"):
            raise ValueError(f"unknown scheduler {cfg.scheduler!r}")
        if cfg.mode not in ("aggregated", "disaggregated"):
            raise ValueError(f"unknown mode {cfg.mode!r}")
        self.cfg = cfg
        self.timing = cfg.timing

    # -- lifecycle ------------------------------------------------------

    def run(
        self,
        arrivals: np.ndarray,
        prompts: np.ndarray,
        decodes: np.ndarray,
    ) -> LLMRunResult:
        arrivals, prompts, decodes = _validated_trace(
            arrivals, prompts, decodes, self.cfg.kv_capacity
        )
        times = arrivals.tolist()
        self._begin([
            _LLMRequest(i, arrival, prompt, decode)
            for i, (arrival, prompt, decode) in enumerate(
                zip(times, prompts.tolist(), decodes.tolist())
            )
        ])
        self._schedule_ticks()
        horizon = self._run_events(
            times, np.argsort(arrivals, kind="stable").tolist()
        )
        return self._finalize(horizon)

    def _begin(self, requests: list[_LLMRequest]) -> None:
        cfg = self.cfg
        self.requests = requests
        self.n = len(requests)
        self.completed = 0
        self.tokens = 0
        self.iterations = 0
        self.token_batch_sum = 0
        self.evictions = 0
        self.transfers = 0
        self.prefill_batches = 0
        self.kv_peak = 0
        self.decode_queue: deque[int] = deque()
        self.prefill_queue: deque[int] = deque()
        disagg = cfg.mode == "disaggregated"
        self.decode_pool = _Pool("decode", cfg.chips, cfg.decode_controller)
        self.prefill_pool = (
            _Pool("prefill", cfg.prefill_chips, cfg.prefill_controller)
            if disagg else None
        )
        self._heap: list[tuple] = []
        self._seq = 0
        #: Closed residencies, four ints each: request, chip, first and
        #: one-past-last chip iteration.
        self._spans: list[int] = []
        self._observe = obs.TRACER.enabled

    def _schedule_ticks(self) -> None:
        for pool in self._pools():
            if pool.controller is not None:
                self._schedule(
                    pool.controller.interval_s, self._control_tick, pool
                )

    def _schedule(self, when: float, callback, *args) -> None:
        """Run ``callback(*args, when)`` at ``when``; ties keep this order."""
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, args))

    def _run_events(self, arrivals: list[float], order: list[int]) -> float:
        """Merge the arrivals, in ``order``, against the event heap.

        An arrival runs ahead of every event at the same or a later time,
        as if it had been scheduled before all of them.  Returns the time
        of the last event, the run's horizon.
        """
        heap = self._heap
        pop = heapq.heappop
        now = 0.0
        for index in order:
            when = arrivals[index]
            while heap and heap[0][0] < when:
                now, _, callback, args = pop(heap)
                callback(*args, now)
            now = when
            self._arrive(index, now)
        while heap:
            now, _, callback, args = pop(heap)
            callback(*args, now)
        return now

    def _pools(self) -> list[_Pool]:
        pools = [self.decode_pool]
        if self.prefill_pool is not None:
            pools.append(self.prefill_pool)
        return pools

    def _finalize(self, horizon: float) -> LLMRunResult:
        if self.completed != self.n:
            raise RuntimeError(
                f"request conservation violated: {self.completed} of "
                f"{self.n} requests completed (scheduler lost work)"
            )
        emitted = np.array([r.emitted for r in self.requests])
        decodes = np.array([r.decode for r in self.requests])
        if np.any(emitted != decodes):
            i = int(np.argmax(emitted != decodes))
            raise RuntimeError(
                f"token conservation violated: request {i} "
                f"emitted {emitted[i]} of {decodes[i]} tokens"
            )
        times = self._token_times()
        last = np.cumsum(decodes) - 1
        return self._result(
            horizon,
            first_token=times[last - decodes + 1],
            finish=times[last],
            # Drop the gap from each request's last token to the next one's first.
            tpot_intervals=np.delete(np.diff(times), last[:-1]),
        )

    def _token_times(self) -> np.ndarray:
        """Every token's emission time, request by request, gathered from
        the chip logs in one indexing pass."""
        logs = [chip.log for chip in self.decode_pool.chips]
        offset = np.cumsum([0] + [len(log) for log in logs])
        spans = np.array(self._spans, dtype=np.int64).reshape(-1, 4)
        spans = spans[np.argsort(spans[:, 0], kind="stable")]
        first = offset[spans[:, 1]] + spans[:, 2]
        counts = spans[:, 3] - spans[:, 2]
        ends = np.cumsum(counts)
        index = np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)
        return np.concatenate(logs)[index]

    def _result(
        self,
        horizon: float,
        first_token: np.ndarray,
        finish: np.ndarray,
        tpot_intervals: np.ndarray,
    ) -> LLMRunResult:
        for pool in self._pools():
            for chip in pool.chips:
                chip.power_off(horizon)
        prefill_pool = self.prefill_pool
        return LLMRunResult(
            arrivals=np.array([r.arrival for r in self.requests]),
            prompts=np.array([r.prompt for r in self.requests]),
            decodes=np.array([r.decode for r in self.requests]),
            first_token=first_token,
            finish=finish,
            emitted=np.array([r.emitted for r in self.requests]),
            prefills=np.array([r.prefills for r in self.requests]),
            evictions_per_request=np.array(
                [r.evictions for r in self.requests]
            ),
            tpot_intervals=tpot_intervals,
            horizon=horizon,
            tokens=self.tokens,
            iterations=self.iterations,
            token_batch_sum=self.token_batch_sum,
            evictions=self.evictions,
            transfers=self.transfers,
            prefill_batches=self.prefill_batches,
            kv_peak=self.kv_peak,
            kv_capacity=self.cfg.kv_capacity,
            decode_busy_seconds=sum(
                c.busy_seconds for c in self.decode_pool.chips
            ),
            prefill_busy_seconds=(
                sum(c.busy_seconds for c in prefill_pool.chips)
                if prefill_pool else 0.0
            ),
            decode_chip_seconds=sum(
                c.powered_seconds for c in self.decode_pool.chips
            ),
            prefill_chip_seconds=(
                sum(c.powered_seconds for c in prefill_pool.chips)
                if prefill_pool else 0.0
            ),
        )

    # -- events ---------------------------------------------------------

    def _arrive(self, index: int, now: float) -> None:
        if self.prefill_pool is not None:
            self.prefill_pool.window_arrivals += 1
            self.prefill_queue.append(index)
            self._kick_prefill(now)
        else:
            self._decode_arrival(index, now)

    def _kick_decode(self, now: float) -> None:
        for chip in self.decode_pool.chips:
            if not self.decode_queue:
                return
            if chip.idle and chip.enabled:
                self._start_iteration(chip, now)

    def _kick_prefill(self, now: float) -> None:
        for chip in self.prefill_pool.chips:
            if not self.prefill_queue:
                return
            if chip.idle and chip.enabled:
                self._start_prefill(chip, now)

    # -- decode pool ----------------------------------------------------

    def _start_iteration(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        run = chip.running
        queue = self.decode_queue
        k = len(chip.log)  # the index this iteration gets if it runs
        inline_prefill_macs = 0
        admit = chip.enabled and (cfg.scheduler == "continuous" or not run)
        while admit and queue and len(run) < cfg.max_batch:
            req = self.requests[queue[0]]
            need = req.prompt + req.emitted
            # Reserve one growth token per running request (including the
            # newcomer) so the admission iteration itself cannot overflow.
            if chip.kv_used + need + len(run) + 1 > cfg.kv_capacity:
                break
            queue.popleft()
            chip.kv_used += need
            run.append(req.index)
            req.start = k
            chip.finishing[k + req.decode - req.emitted - 1].append(req.index)
            if self.prefill_pool is None:
                # Aggregated mode (re)builds the cache on the decode chip,
                # piggybacked on this iteration's weight stream.
                req.prefills += 1
                inline_prefill_macs += self.timing.prefill_macs(need)
        # Every running request's cache grows by one token this iteration.
        # ``run`` admits no request whose prompt + decode + 1 exceeds the
        # budget, so a lone request always fits and eviction never empties
        # the chip.
        chip.kv_used += len(run)
        evicted = False
        while chip.kv_used > cfg.kv_capacity:
            self._evict(chip, self.requests[run.pop()], k)
            evicted = True
        if not run:
            chip.idle = True
            if not chip.enabled:
                chip.power_off(now)
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
        self._schedule(now + step, self._end_iteration, chip)
        if evicted and self.prefill_pool is not None:
            self._kick_prefill(now)

    def _evict(self, chip: _Chip, req: _LLMRequest, k: int) -> None:
        """Evict ``req`` as iteration ``k`` starts: it keeps the tokens of
        iterations ``start .. k-1`` and frees a cache grown through ``k``."""
        chip.finishing[req.start + req.decode - req.emitted - 1].remove(req.index)
        chip.kv_used -= req.prompt + req.emitted + k - req.start + 1
        self._close(chip, req, k)
        req.evictions += 1
        self.evictions += 1
        if self.prefill_pool is not None:
            self.prefill_queue.appendleft(req.index)
        else:
            self.decode_queue.appendleft(req.index)

    def _close(self, chip: _Chip, req: _LLMRequest, end: int) -> None:
        """Credit ``req`` with one token per chip iteration ``start .. end-1``."""
        self._spans += (req.index, chip.index, req.start, end)
        req.emitted += end - req.start

    def _end_iteration(self, chip: _Chip, now: float) -> None:
        k = len(chip.log)
        chip.log.append(now)
        self.tokens += len(chip.running)
        for index in chip.finishing.pop(k, ()):
            req = self.requests[index]
            # A finished request's cache holds its prompt and every token.
            chip.kv_used -= req.prompt + req.decode
            self._close(chip, req, k + 1)
            chip.running.remove(index)
            self.completed += 1
        self._start_iteration(chip, now)
        # An eviction or retirement may have left work for idle peers.
        if self.decode_queue:
            self._kick_decode(now)

    # -- prefill pool (disaggregated mode) -------------------------------

    def _start_prefill(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        taken: list[int] = []
        needs: list[int] = []
        kv_sum = 0
        while (
            chip.enabled
            and self.prefill_queue
            and len(taken) < cfg.prefill_batch
        ):
            req = self.requests[self.prefill_queue[0]]
            need = req.prompt + req.emitted
            if taken and kv_sum + need > cfg.kv_capacity:
                break
            self.prefill_queue.popleft()
            req.prefills += 1
            taken.append(req.index)
            needs.append(need)
            kv_sum += need
        if not taken:
            chip.idle = True
            if not chip.enabled:
                chip.power_off(now)
            return
        step = self.timing.prefill_seconds(needs)
        chip.idle = False
        chip.busy_seconds += step
        self.prefill_pool.window_busy += step
        self.prefill_batches += 1
        if self._observe:
            obs.TRACER.sim_span(
                f"prefill b{len(taken)}", now, step, cat="llm",
                tid=1000 + chip.index, batch=len(taken), kv=kv_sum,
            )
        self._schedule(
            now + step, self._end_prefill, chip, tuple(taken), tuple(needs)
        )

    def _end_prefill(
        self, chip: _Chip, members: tuple[int, ...],
        needs: tuple[int, ...], now: float,
    ) -> None:
        cfg = self.cfg
        for index, need in zip(members, needs):
            delay = kv_transfer_seconds(
                need, cfg.kv_bytes_per_token,
                cfg.transfer_bytes_per_s, cfg.transfer_rtt_s,
            )
            self.transfers += 1
            self._schedule(now + delay, self._decode_arrival, index)
        self._start_prefill(chip, now)

    def _decode_arrival(self, index: int, now: float) -> None:
        self.decode_pool.window_arrivals += 1
        self.decode_queue.append(index)
        self._kick_decode(now)

    # -- per-pool autoscaling --------------------------------------------

    def _control_tick(self, pool: _Pool, now: float) -> None:
        ctl = pool.controller
        queued = len(
            self.prefill_queue if pool.name == "prefill" else self.decode_queue
        )
        active = pool.active()
        rate = pool.window_arrivals / ctl.interval_s
        utilization = (
            min(1.0, pool.window_busy / (active * ctl.interval_s))
            if active else 1.0
        )
        pool.window_arrivals = 0
        pool.window_busy = 0.0
        desired = ctl.desired(
            now, queued=queued, arrival_rate=rate, active=active,
            spinning=pool.spinning(), utilization=utilization,
        )
        desired = max(ctl.min_chips, min(desired, len(pool.chips)))
        have = active + pool.spinning()
        if desired > have:
            for chip in pool.chips:
                if have >= desired:
                    break
                if not chip.enabled and not chip.spinning:
                    chip.spinning = True
                    self._schedule(
                        now + ctl.spinup_s, self._activate, pool, chip
                    )
                    have += 1
        elif desired < have:
            # Deterministic scale-down: highest-index enabled chips first;
            # busy chips drain (no new admissions) and power off when empty.
            for chip in reversed(pool.chips):
                if have <= desired:
                    break
                if chip.enabled:
                    chip.enabled = False
                    if chip.idle:
                        chip.power_off(now)
                    have -= 1
        if self.completed < self.n:
            self._schedule(now + ctl.interval_s, self._control_tick, pool)

    def _activate(self, pool: _Pool, chip: _Chip, now: float) -> None:
        chip.spinning = False
        chip.enabled = True
        chip.power_on(now)
        if pool.name == "prefill":
            self._kick_prefill(now)
        else:
            self._kick_decode(now)


def run_llm_point(
    cfg: ContinuousConfig,
    *,
    rate_rps: float,
    requests: int,
    prompt_mean: int,
    decode_mean: int,
    seed: int,
) -> LLMRunResult:
    """Sample a seeded trace and run it through the iteration engine."""
    arrivals, prompts, decodes = sample_llm_requests(
        requests, rate_rps, prompt_mean, decode_mean, seed
    )
    return ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)


def llm_row(
    result: LLMRunResult,
    *,
    load: float,
    rate_rps: float,
    slo_tpot_s: float,
    slo_ttft_s: float,
) -> dict:
    """One operating-curve row: throughput, latency tails, SLO goodput.

    Goodput follows the LLM-serving literature: a request counts only if
    its first token met the TTFT SLO *and* its per-token pace met the
    TPOT SLO; goodput is those requests' tokens per powered chip-second.
    """
    ttft = result.first_token - result.arrivals
    span = result.finish - result.first_token
    steps = np.maximum(result.decodes - 1, 1)
    per_request_tpot = np.where(result.decodes > 1, span / steps, 0.0)
    met = (ttft <= slo_ttft_s) & (per_request_tpot <= slo_tpot_s)
    chip_seconds = result.decode_chip_seconds + result.prefill_chip_seconds
    intervals = result.tpot_intervals
    p50_tpot = float(np.quantile(intervals, 0.50)) if intervals.size else 0.0
    p99_tpot = float(np.quantile(intervals, 0.99)) if intervals.size else 0.0
    return {
        "load": load,
        "offered_rps": rate_rps,
        "tokens_per_second": result.tokens / result.horizon,
        "tokens_per_second_per_chip": (
            result.tokens / chip_seconds if chip_seconds else 0.0
        ),
        "goodput_tokens_per_second_per_chip": (
            float(result.decodes[met].sum()) / chip_seconds
            if chip_seconds else 0.0
        ),
        "slo_attainment": float(met.mean()) if met.size else 0.0,
        "p50_tpot_ms": p50_tpot * 1e3,
        "p99_tpot_ms": p99_tpot * 1e3,
        "p50_ttft_ms": float(np.quantile(ttft, 0.50)) * 1e3,
        "p99_ttft_ms": float(np.quantile(ttft, 0.99)) * 1e3,
        "mean_batch": (
            result.token_batch_sum / result.iterations
            if result.iterations else 0.0
        ),
        "kv_peak_fraction": result.kv_peak / result.kv_capacity,
        "evictions": result.evictions,
        "transfers": result.transfers,
        "mean_decode_chips": (
            result.decode_chip_seconds / result.horizon
            if result.horizon else 0.0
        ),
        "mean_prefill_chips": (
            result.prefill_chip_seconds / result.horizon
            if result.horizon else 0.0
        ),
        "utilization": (
            result.decode_busy_seconds / result.decode_chip_seconds
            if result.decode_chip_seconds else 0.0
        ),
    }
