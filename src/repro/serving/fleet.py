"""A fleet of batching accelerator replicas behind a router.

``Fleet`` runs the open-loop simulation: requests arrive (Poisson or
trace), the router -- round-robin or join-shortest-queue, named in
:data:`ROUTERS` -- assigns each to a replica, the replica's batching
policy decides when to launch, and the replica's latency curve
(platform-derived or constant) says how long the batch occupies the
device and when responses return.  :class:`FleetSim` owns the one event
heap and clock that drive every replica, so cross-replica effects (load
imbalance, JSQ draining hotspots) are simulated, not approximated.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.nn.graph import Model
from repro.perfcache import occupancy_latency
from repro.platforms.base import BATCH_CANDIDATES, Platform
from repro.serving.batcher import (
    Batcher,
    FixedBatcher,
    SLOAdaptiveBatcher,
    TimeoutBatcher,
)
from repro.serving.engine import (
    BatchServer,
    LatencyCurve,
    ServingStats,
    reject_first,
    summarize,
)


class PlatformCurve(LatencyCurve):
    """Batch latency curve measured from a platform model.

    Exact platform evaluations are expensive on the TPU (each new batch
    size compiles and profiles a model variant), but a running simulation
    asks about arbitrary partial-batch sizes.  So the curve is exact at a
    grid of anchor batch sizes (evaluated lazily through the process-wide
    :data:`repro.perfcache.GLOBAL`) and piecewise-linear in between -- a
    good fit, since batch time is close to ``fixed overhead + per-example
    cost`` on every platform.  Batches beyond the largest anchor
    extrapolate from the last segment.  Each point the simulation asks
    for is memoized on the curve.
    """

    def __init__(
        self,
        platform: Platform,
        model: Model,
        anchors: Sequence[int] = BATCH_CANDIDATES,
    ) -> None:
        self.platform = platform
        self.model = model
        self.anchors = sorted(set(anchors) | {1})
        if len(self.anchors) < 2:
            raise ValueError("PlatformCurve needs at least two distinct anchors")
        self._points: dict[int, tuple[float, float]] = {}

    def _exact(self, batch: int) -> tuple[float, float]:
        return occupancy_latency(self.platform, self.model, batch)

    def _point(self, batch: int) -> tuple[float, float]:
        point = self._points.get(batch)
        if point is None:
            point = self._points[batch] = self._interpolate(batch)
        return point

    def _interpolate(self, batch: int) -> tuple[float, float]:
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        pos = bisect_left(self.anchors, batch)
        if pos < len(self.anchors) and self.anchors[pos] == batch:
            return self._exact(batch)
        if pos >= len(self.anchors):  # extrapolate past the grid
            lo, hi = self.anchors[-2], self.anchors[-1]
        else:
            lo, hi = self.anchors[pos - 1], self.anchors[pos]
        (occ_lo, lat_lo), (occ_hi, lat_hi) = self._exact(lo), self._exact(hi)
        frac = (batch - lo) / (hi - lo)
        return (
            occ_lo + frac * (occ_hi - occ_lo),
            lat_lo + frac * (lat_hi - lat_lo),
        )

    def occupancy(self, batch: int) -> float:
        return self._point(batch)[0]

    def latency(self, batch: int) -> float:
        return self._point(batch)[1]


class Replica:
    """One accelerator behind its own queue and batching policy.

    The queue holds *request indices* (positions in the simulation's
    arrival vector); arrival times live in one shared array on the
    simulation, which is what lets completions be written back over
    index arrays instead of per-request objects.
    """

    def __init__(self, curve: LatencyCurve, batcher: Batcher) -> None:
        self.server = BatchServer(curve)
        self.batcher = batcher
        self.queue: deque[int] = deque()
        self.admitted = 0

    def reset(self) -> None:
        """Idle server, empty queue, nothing admitted: a fresh run's start."""
        self.server = BatchServer(self.server.curve)
        self.queue.clear()
        self.admitted = 0

    def admit_index(self, index: int) -> None:
        self.queue.append(index)
        self.admitted += 1

    @property
    def backlog(self) -> int:
        return len(self.queue)


#: How a fleet assigns arrivals to replicas: ``round_robin`` in list
#: order, or ``jsq`` (join-shortest-queue: fewest queued requests, then
#: an idle server, then list order).
ROUTERS = ("round_robin", "jsq")


def check_router(router: str) -> None:
    """Raise ``ValueError`` unless ``router`` is one of :data:`ROUTERS`."""
    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; try one of {sorted(ROUTERS)}")


def _check_fleet(replicas: Sequence[Replica], router: str) -> None:
    """Refuse a fleet with no replica or an unknown router."""
    if not replicas:
        raise ValueError("a fleet needs at least one replica")
    check_router(router)


@dataclass(frozen=True)
class FleetResult:
    """Raw simulation output plus per-replica accounting."""

    responses: np.ndarray  # per-served-request response time, request order
    horizon: float
    busy_time: float
    served_per_replica: tuple[int, ...]
    batches_per_replica: tuple[int, ...]
    #: Per-replica busy (start, end) intervals -- the utilization
    #: timelines the datacenter energy accounting integrates.
    busy_intervals: tuple[tuple[tuple[float, float], ...], ...] = ()

    def stats(
        self,
        warmup_fraction: float = 0.1,
        slo_seconds: float | None = None,
    ) -> ServingStats:
        return summarize(
            self.responses,
            horizon=self.horizon,
            busy_time=self.busy_time,
            n_servers=len(self.served_per_replica),
            warmup_fraction=warmup_fraction,
            slo_seconds=slo_seconds,
            batches=sum(self.batches_per_replica),
        )


#: Batchers whose polls a JSQ admission window replays (exact types: a
#: subclass may override ``wait_deadline`` or keep state across polls).
_REPLAYED_BATCHERS = (FixedBatcher, TimeoutBatcher, SLOAdaptiveBatcher)


def _deal(replicas: list[Replica], start: int, i: int, j: int) -> None:
    """Admit arrivals ``i:j`` round-robin over ``replicas``, the first to
    ``replicas[start % len(replicas)]``: one strided slice each."""
    count = len(replicas)
    for offset in range(min(count, j - i)):
        replica = replicas[(start + offset) % count]
        indices = range(i + offset, j, count)
        replica.queue.extend(indices)
        replica.admitted += len(indices)


class _PollTimer:
    """A timer event that polls one replica when it fires.

    :meth:`FleetSim.poll` returns at once while the replica's server is
    busy, and a server's ``free_at`` never falls, so a poll timer due
    before its replica frees is a no-op: :meth:`FleetSim._run_events`
    drops it off the heap top unfired.  A JSQ window sets at most one
    per idle replica (:meth:`FleetSim._jsq_window`).
    """

    __slots__ = ("sim", "replica")

    def __init__(self, sim: FleetSim, replica: Replica) -> None:
        self.sim = sim
        self.replica = replica

    def __call__(self, _now: float) -> None:
        self.sim.poll(self.replica)


class FleetSim:
    """One in-flight discrete-event fleet simulation.

    ``Fleet.run`` drives it start to finish over a static replica set;
    the autoscaler (:mod:`repro.datacenter.autoscaler`) drives the same
    core with a *dynamic* routing set (``eligible``) and its own
    control-loop events, set with :meth:`schedule`.  ``replicas``
    accumulates every replica that ever admitted work -- deactivated
    replicas stay in it so their residual queues drain and their
    accounting is kept.

    The sim owns its event heap of ``(time, seq, event)`` entries, the
    sequence counter that breaks time ties in scheduling order, the
    clock ``now`` and the round-robin counter, so every run starts from
    the first replica.  ``router`` is one of :data:`ROUTERS`.

    ``arrivals`` must be finite times >= 0 s in non-decreasing order, the
    way every generator in :mod:`repro.serving.traffic` draws them; any
    other trace raises ``ValueError`` naming its first bad index.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        router: str,
        arrivals: np.ndarray,
    ) -> None:
        _check_fleet(replicas, router)
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.ndim != 1:
            raise ValueError(
                f"arrivals must be one-dimensional, got shape {arrivals.shape}"
            )
        if arrivals.size == 0:
            raise ValueError("arrivals must be non-empty")
        # A finite, sorted trace is non-negative when its first time is.
        bad = ~np.isfinite(arrivals)
        bad[0] |= arrivals[0] < 0
        reject_first("arrivals", arrivals, bad, "a finite time >= 0 s")
        drops = np.diff(arrivals) < 0
        if drops.any():
            i = int(np.argmax(drops)) + 1
            raise ValueError(
                f"arrivals[{i}] must be >= arrivals[{i - 1}] (a sorted trace), "
                f"got {arrivals[i].item()!r} after {arrivals[i - 1].item()!r}"
            )
        self.replicas: list[Replica] = list(replicas)
        self.eligible: list[Replica] = list(replicas)  # routing targets
        self._jsq = router == "jsq"
        self._next = 0  # the round-robin counter
        self.arrivals = arrivals
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        self.now = 0.0
        self.responses = np.full(arrivals.size, np.nan)
        self.pending = arrivals.size  # arrivals not yet processed
        # Arrival times as Python floats without a copy: the batch scan
        # looks a time up once per batch.  The per-arrival event path
        # swaps in a list (:meth:`_run_events`), whose lookups are
        # about twice as fast.
        self._times: Sequence[float] = memoryview(arrivals)
        # One flag decides whether the hot launch path pays for
        # tracing at all.  Replica trace tracks follow list position;
        # autoscaler-spawned replicas get the next tids lazily.
        self._observe = obs.TRACER.enabled
        self._tids: dict[int, int] = {id(r): i for i, r in enumerate(self.replicas)}
        # Whether a JSQ window pushes one timer per idle replica rather
        # than one per poll (:meth:`_jsq_window`); set per run by
        # :meth:`_run_events`.
        self._hold_timers = True

    def schedule(self, when: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(when)`` at ``when``; events at one time run in
        the order they were scheduled."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))

    def poll(self, replica: Replica) -> None:
        """Launch a batch on ``replica`` if its server is free and its
        queue is full, its head's deadline has come, or the trace has
        ended; otherwise set a timer for the deadline.

        Deadlines are compared, never ages: the timer fires at exactly
        the float ``wait_deadline`` returns, which ``now - oldest >=
        budget`` can pass one ulp earlier.
        """
        now = self.now
        queue = replica.queue
        if not queue or replica.server.free_at > now:
            return
        batcher = replica.batcher
        n = len(queue)
        if n < batcher.max_batch and self.pending:
            deadline = batcher.wait_deadline(n, self._times[queue[0]])
            if deadline is None or deadline > now:
                if deadline is not None:
                    self.schedule(deadline, _PollTimer(self, replica))
                return
        self._launch(replica, min(n, batcher.max_batch), now)
        self.schedule(replica.server.free_at, _PollTimer(self, replica))

    def _launch(self, replica: Replica, n: int, now: float) -> None:
        if self._observe:
            self._pre_launch(replica)
        queue = replica.queue
        if n == len(queue):
            batch = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            batch = [popleft() for _ in range(n)]
        done = replica.server.start_batch(now, n)
        if n >= 32:
            # Completion scheduling over arrays: one float64 subtraction
            # per batch.  Bit-identical to the scalar loop -- IEEE
            # arithmetic is elementwise either way.
            idx = np.asarray(batch, dtype=np.intp)
            self.responses[idx] = done - self.arrivals[idx]
        else:
            responses = self.responses
            times = self._times
            for index in batch:
                responses[index] = done - times[index]
        if self._observe:
            self._post_launch(replica, batch, now, done)

    def _pre_launch(self, replica: Replica) -> None:
        """Point the replica's batch spans at its trace track (cold path)."""
        tid = self._tids.get(id(replica))
        if tid is None:
            tid = self._tids[id(replica)] = len(self._tids)
        replica.server.trace_tid = tid

    def _post_launch(
        self, replica: Replica, batch: Sequence[int], now: float, done: float
    ) -> None:
        """Per-request lifecycle spans (cold path)."""
        times = self._times
        tid = replica.server.trace_tid
        for index in batch:
            arrival = times[index]
            obs.TRACER.sim_span(
                "request",
                arrival,
                done - arrival,
                cat="serving",
                tid=tid,
                pid=obs.REQ_PID,
                wait_ms=(now - arrival) * 1e3,
                batch=len(batch),
            )

    def _pick(self) -> Replica:
        """The eligible replica the next arrival joins."""
        eligible = self.eligible
        if not self._jsq:
            replica = eligible[self._next % len(eligible)]
            self._next += 1
            return replica
        now = self.now
        best = eligible[0]
        best_key = (len(best.queue), best.server.free_at > now)
        for replica in eligible[1:]:
            key = (len(replica.queue), replica.server.free_at > now)
            if key < best_key:
                best, best_key = replica, key
        return best

    def _on_arrival(self, index: int) -> None:
        self.pending -= 1
        replica = self._pick()
        replica.admit_index(index)
        self.poll(replica)
        if self.pending == 0:
            # End of trace: drain idle replicas with partial queues
            # (busy ones drain when their free event polls them).
            for other in self.replicas:
                if other is not replica:
                    self.poll(other)

    def _flush_residual(self) -> None:
        """Serve whatever the event cascade left queued, deterministically.

        The end-of-trace polls launch every queue, so a run normally
        leaves nothing here; the flush keeps "every admitted request
        gets a response" from depending on that cascade.  It goes
        replica by replica (index order, then time), so any residual
        schedule is reproducible.
        """
        for replica in self.replicas:
            while replica.queue:
                now = max(self.now, replica.server.free_at)
                self._launch(replica, min(len(replica.queue), replica.batcher.max_batch), now)

    def _run_events(self) -> None:
        """Drive the event heap over the arrival trace.

        Fleets whose per-replica arrival streams are known up front
        (:meth:`_scan_applies`: round-robin fixed, timeout and
        SLO-adaptive fleets, and one such replica under JSQ) are stepped
        per batch by :meth:`_scan_batches` instead.  Others (JSQ over
        two or more replicas, custom policies, adaptive batchers over a
        dipping latency curve, the autoscaler's dynamic replica set)
        merge the sorted arrival stream directly against the
        dynamic-event heap instead of pushing a heap event per arrival,
        over the trace copied once into a list.  Event order
        is identical to scheduling every arrival up front: events
        already on the heap when the run starts carry lower sequence
        numbers than the arrivals would have received, so they win
        exact time ties; events scheduled during the run would have
        received higher ones, so they lose them.  Between
        heap events, :meth:`_bulk_admit` admits arrival windows at once;
        arrivals it cannot replay take :meth:`_on_arrival`.

        A :class:`_PollTimer` on the heap top whose replica is busy at
        the timer's time is dropped unfired, so it never ends a window.
        It is never the run's last event: the free-time poll its
        replica's launch scheduled comes after it.  While the heap holds
        nothing but poll timers at the start, nothing else is ever
        scheduled, and JSQ windows hold one timer per idle replica
        (``_hold_timers``).
        """
        if self._scan_applies():
            self._scan_batches()
            return
        heap = self._heap
        pre_seq = self._seq  # events below this watermark win time ties
        self._hold_timers = all(type(event) is _PollTimer for _, _, event in heap)
        pop = heapq.heappop
        on_arrival = self._on_arrival
        poll_timer = _PollTimer
        times = self._times = self.arrivals.tolist()
        n = len(times)
        i = 0
        while True:
            top_when = math.inf
            if heap:
                top = heap[0]
                top_when = top[0]
                event = top[2]
                if type(event) is poll_timer and event.replica.server.free_at > top_when:
                    pop(heap)  # the replica is busy: its poll would return at once
                    continue
            if i < n:
                when = times[i]
                if top_when < when or (top_when == when and top[1] < pre_seq):
                    pop(heap)
                    self.now = top_when
                    event(top_when)
                    continue
                j = self._bulk_admit(i, top_when)
                if j > i:
                    i = j
                    continue
                self.now = when
                on_arrival(i)
                i += 1
            elif heap:
                pop(heap)
                self.now = top_when
                event(top_when)
            else:
                break

    def _bulk_admit(self, i: int, top_when: float) -> int:
        """Admit a window of arrivals from ``i`` on in one step.

        No event fires before the next heap event ``top_when`` (never a
        busy replica's poll timer, which :meth:`_run_events` drops) or a
        busy eligible replica's ``free_at``, and a window ends before any
        arrival that would launch a batch, so inside it busy replicas
        stay busy and idle ones idle.  Under JSQ every window goes
        through :meth:`_jsq_window` (busy replicas' runs as queue
        extends, idle replicas' polls replayed, one timer held per
        replica), unless an idle replica's batcher is not one of the
        in-tree ones it replays.  Round-robin opens a window only while every eligible
        replica is busy: ``poll`` then returns at once, so the window is
        strided slices of queue appends.

        The final arrival always takes the per-arrival path: its
        ``_on_arrival`` triggers the end-of-trace drain polls.  Returns
        the first unconsumed index (``== i`` when nothing was admitted).
        """
        eligible = self.eligible
        times = self._times
        now = times[i]
        jsq = self._jsq
        bound = top_when
        for replica in eligible:
            free = replica.server.free_at
            if free > now:
                if free < bound:
                    bound = free
            elif not jsq or type(replica.batcher) not in _REPLAYED_BATCHERS:
                return i
        j = min(bisect_left(times, bound, i, len(times)), len(times) - 1)
        if jsq:
            j = self._jsq_window(i, j, eligible)
        else:
            _deal(eligible, self._next, i, j)
            self._next += j - i
        if j == i:
            return i
        self.pending -= j - i
        self.now = times[j - 1]
        return j

    def _jsq_window(self, i: int, j: int, eligible: list[Replica]) -> int:
        """Replay join-shortest-queue over ``i:j``, a run of arrivals at a time.

        Each replica's busy flag is fixed inside the window, so the pick
        is the minimum of (queue length, busy, list index), kept in a
        heap.  A busy replica holding the minimum keeps it until its
        queue passes the runner-up's key, so its run of arrivals is one
        queue extend; once every eligible replica is busy at one depth,
        the picks go round in list order and the rest of the window is
        strided slices.  An arrival sent to an idle replica replays
        :meth:`poll`, ending the window before an arrival that would
        launch and otherwise taking the sequence number
        :meth:`schedule` would give its timer.  The window also
        ends before the earliest such timer.

        An idle replica's head stays put inside the window, so of the
        timers its polls set only the earliest, ``(deadline, seq)``, is
        pushed, once, as the window returns.  A later one would poll only
        where a poll of its replica runs anyway: a poll launches only at
        or past its head's deadline, and the held timer's poll sets the
        timer for the head's deadline at its current queue length.  Two
        polls of one replica at one time are the same call, so dropping
        one is exact while the heap holds nothing but polls
        (``_hold_timers``).  An autoscaler's control tick could read the
        queue between them, so under one every timer is pushed as set.
        Returns the first unconsumed index.
        """
        times = self._times
        now = times[i]
        keys = [(len(r.queue), r.server.free_at > now, q) for q, r in enumerate(eligible)]
        count = len(keys)
        top = max(keys)[0]  # the deepest queue
        heapq.heapify(keys)
        replace = heapq.heapreplace
        held: dict[int, tuple[float, int]] | None = None  # list index -> earliest timer
        bound = math.inf  # the earliest timer set
        k = i
        while k < j:
            depth, busy, q = keys[0]
            replica = eligible[q]
            queue = replica.queue
            if busy:
                if depth == top:
                    # Every depth is equal, and an idle replica would hold
                    # the minimum: all are busy, so picks go in list order
                    # (and no timer is held).
                    _deal(eligible, 0, k, j)
                    return j
                # The minimum keeps winning while its key is below the
                # runner-up's: up to the runner-up's depth, one further
                # when that one is busy too and later in the list.
                second = keys[1]
                if count > 2 and keys[2] < second:
                    second = keys[2]
                stop = k + second[0] - depth + (second[1] and q < second[2])
                if stop > j:
                    stop = j
                end = stop
                if times[stop - 1] >= bound:
                    end = bisect_left(times, bound, k, stop)
                queue.extend(range(k, end))
                replica.admitted += end - k
                depth += end - k
                k = end
                if end < stop:
                    break
                replace(keys, (depth, True, q))
                if depth > top:
                    top = depth
                continue
            when = times[k]
            if when >= bound:
                break
            batcher = replica.batcher
            if depth + 1 >= batcher.max_batch:
                break
            deadline = batcher.wait_deadline(depth + 1, times[queue[0]] if queue else when)
            if deadline is not None:
                if deadline <= when:
                    break
                seq = self._seq
                self._seq = seq + 1
                if not self._hold_timers:
                    heapq.heappush(self._heap, (deadline, seq, _PollTimer(self, replica)))
                elif held is None:
                    held = {q: (deadline, seq)}
                elif q not in held or deadline < held[q][0]:
                    held[q] = (deadline, seq)
                if deadline < bound:
                    bound = deadline
            queue.append(k)
            replica.admitted += 1
            depth += 1
            replace(keys, (depth, False, q))
            if depth > top:
                top = depth
            k += 1
        if held:
            heap = self._heap
            for q, (deadline, seq) in held.items():
                heapq.heappush(heap, (deadline, seq, _PollTimer(self, eligible[q])))
        return k

    def _scan_applies(self) -> bool:
        """Whether each replica's batches follow from its own arrivals.

        They do under round-robin over a static set of replicas that are
        idle with empty queues at the first arrival, with nothing
        scheduled on the heap: replica ``q`` then receives the strided
        slice ``arrivals[q::R]`` and nothing else touches its queue.
        Under JSQ they do for one such replica, which receives every
        arrival.  Every batcher must be exactly a :class:`FixedBatcher`,
        a :class:`TimeoutBatcher`, or an :class:`SLOAdaptiveBatcher`
        whose wait budgets are finite and never rise with the queue
        (:meth:`_scan_budgets`).  O(replicas + adaptive batch caps).
        """
        if self._heap or (self._jsq and len(self.replicas) > 1):
            return False
        first = self._times[0]
        return (
            all(
                type(r.batcher) in (FixedBatcher, TimeoutBatcher)
                or self._scan_budgets(r.batcher) is not None
                for r in self.replicas
            )
            and self.eligible == self.replicas
            and all(not r.queue and r.server.free_at <= first for r in self.replicas)
        )

    @staticmethod
    def _scan_budgets(batcher: Batcher) -> tuple[float, ...] | None:
        """The wait budgets :meth:`poll` compares, by queue length
        (:meth:`SLOAdaptiveBatcher.wait_budgets`), or None unless the
        batcher is exactly an :class:`SLOAdaptiveBatcher` whose budgets
        are finite and never rise over ``L = 1 .. max_batch - 1``.

        A latency curve that dips somewhere gives a rising budget; the
        per-arrival loop steps such a fleet.
        """
        if type(batcher) is not SLOAdaptiveBatcher:
            return None
        budgets = batcher.wait_budgets()
        if all(map(math.isfinite, budgets[1:])) and all(
            map(operator.ge, budgets[1:], budgets[2:])
        ):
            return budgets
        return None

    def _scan_batches(self) -> None:
        """Step every replica batch by batch over its share: its
        round-robin slice, or the whole trace for a lone JSQ replica."""
        times = self._times
        count = len(self.replicas)
        for q, replica in enumerate(self.replicas):
            own = times[q::count]
            if own:
                self._scan_replica(replica, own, q, count)
            replica.admitted += len(own)
        self.pending = 0

    def _scan_replica(
        self, replica: Replica, own: Sequence[float], start: int, stride: int
    ) -> None:
        """Launch ``replica``'s batches over its arrivals ``own``, global
        indices ``start::stride``, exactly as :meth:`poll` would.

        A replica polls at its own arrivals, when its server frees, at
        queue-head deadlines (timers), and at the end-of-trace poll
        after the global last arrival.  At equal times its arrivals come
        first, in index order, so a poll is ordered by ``(time, own
        arrivals admitted)``.  Between launches every launch condition
        can only turn true, so the next batch starts at the earliest of:

        * the first poll with the server free and the head queued;
        * the poll admitting the ``max_batch``-th queued arrival;
        * the head's deadline, where its timer polls -- after any own
          arrival at that same instant;
        * the end-of-trace poll.

        An SLO-adaptive head's deadline moves with the queue length, so
        :meth:`_adaptive_launch` finds its launch past the first poll by
        one bisection over the queue lengths.  Python work is per batch:
        ``own`` is a view of the trace, each batch records its completion
        time and size, and the replica's responses are written once after
        its last batch.  The queue stays empty.
        """
        m = len(own)
        cap = replica.batcher.max_batch
        timeout = (
            replica.batcher.timeout_seconds
            if type(replica.batcher) is TimeoutBatcher else None
        )
        budgets = self._scan_budgets(replica.batcher)
        server = replica.server
        dones: list[float] = []
        sizes: list[int] = []
        end = (self._times[-1], m)  # the end-of-trace poll
        free = server.free_at
        head = admitted = 0
        while head < m:
            j = bisect_left(own, free, admitted)
            if j < m and own[j] == free:
                now, admitted = free, j + 1
            elif j > head:
                now, admitted = free, j
            else:  # idle with an empty queue until the head arrives
                now, admitted = own[head], head + 1
            if budgets is not None:
                now, admitted = self._adaptive_launch(own, head, now, admitted, budgets, end[0])
            elif not (
                admitted - head >= cap
                or (now, admitted) >= end
                or (timeout is not None and own[head] + timeout <= now)
            ):
                options = [end]
                if head + cap <= m:
                    options.append((own[head + cap - 1], head + cap))
                if timeout is not None:
                    deadline = own[head] + timeout
                    j = bisect_left(own, deadline, admitted)
                    if j < m and own[j] == deadline:
                        j += 1  # an own arrival at the deadline polls first
                    options.append((deadline, j))
                now, admitted = min(options)
            n = min(admitted - head, cap)
            if self._observe:
                self._pre_launch(replica)
            done = server.start_batch(now, n)
            dones.append(done)
            sizes.append(n)
            if self._observe:
                first = start + head * stride
                self._post_launch(replica, range(first, first + n * stride, stride), now, done)
            head += n
            free = server.free_at
        # IEEE subtraction is elementwise: bit-identical to one per batch.
        self.responses[start::stride] = np.repeat(dones, sizes) - self.arrivals[start::stride]

    @staticmethod
    def _adaptive_launch(
        own: Sequence[float],
        head: int,
        start: float,
        first: int,
        budgets: tuple[float, ...],
        end: float,
    ) -> tuple[float, int]:
        """The poll ``(time, own arrivals admitted)`` that launches the
        SLO-adaptive batch headed by ``own[head]``, given the first poll
        ``(start, first)`` that finds the server free.

        From there the replica polls at each own arrival, at the timer
        each non-launching poll sets for its deadline ``oldest +
        budget(L)``, at earlier heads' still-pending timers, and at the
        end-of-trace poll ``(end, m)``.  With ``L`` queued, no poll
        before the deadline launches and the deadline's own timer does,
        so the launch lands there unless the next own arrival, the
        ``max_batch``-th queued or the end-of-trace poll comes first.
        The budget never rises with ``L``, so "a poll with at most ``a``
        own arrivals admitted launches" is monotone in ``a``: one
        bisection finds the launch.
        """
        m = len(own)
        cap = len(budgets)
        oldest = own[head]

        def lands(a: int) -> tuple[float, int] | None:
            """Where the launch lands if a poll with at most ``a`` own
            arrivals admitted makes it, else None."""
            now = start if a == first else own[a - 1]
            if a - head >= cap:
                return now, a
            deadline = oldest + budgets[a - head]
            if deadline <= now or (a == m and now >= end):
                return now, a
            if a == m:
                return min(deadline, end), m
            return (deadline, a) if deadline < own[a] else None

        launch = lands(first)
        if launch is not None:
            return launch
        lo, hi = first + 1, min(m, head + cap)
        while lo < hi:
            mid = (lo + hi) // 2
            if lands(mid) is None:
                lo = mid + 1
            else:
                hi = mid
        return lands(lo)

    def run(self) -> FleetResult:
        """Simulate the trace; traced, the run is one ``serving.fleet``
        wall span carrying its request and replica counts."""
        start = obs.TRACER.now() if self._observe else 0.0
        self._run_events()
        self._flush_residual()

        # The engine invariant: every admitted request got a response.
        admitted = sum(r.admitted for r in self.replicas)
        served = sum(r.server.served for r in self.replicas)
        if (
            admitted != self.arrivals.size
            or served != admitted
            or np.isnan(self.responses).any()
        ):
            raise RuntimeError(
                f"request conservation violated: {self.arrivals.size} arrived, "
                f"{admitted} admitted, {served} served"
            )
        horizon = max(
            max(r.server.free_at for r in self.replicas), float(self.arrivals[-1])
        )
        if self._observe:
            obs.TRACER.record_wall(
                "serving.fleet", start, obs.TRACER.now() - start, cat="serving",
                requests=self.arrivals.size, replicas=len(self.replicas),
            )
        return FleetResult(
            responses=self.responses,
            horizon=horizon,
            busy_time=sum(r.server.busy_time for r in self.replicas),
            served_per_replica=tuple(r.server.served for r in self.replicas),
            batches_per_replica=tuple(r.server.batches for r in self.replicas),
            busy_intervals=tuple(tuple(r.server.busy_intervals) for r in self.replicas),
        )


class Fleet:
    """N replicas behind one router, named in :data:`ROUTERS`."""

    def __init__(self, replicas: list[Replica], router: str = "round_robin") -> None:
        _check_fleet(replicas, router)
        self.replicas = replicas
        self.router = router

    def run(self, arrivals: np.ndarray) -> FleetResult:
        """Simulate the fleet over an arrival-time vector.

        The partial batches left at the end of the trace are served, so
        every request completes.  Every run starts from idle replicas,
        so one fleet can be run again.
        """
        for replica in self.replicas:
            replica.reset()
        return FleetSim(self.replicas, self.router, arrivals).run()
