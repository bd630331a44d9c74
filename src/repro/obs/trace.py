"""Span tracing: nested timing spans exported as Chrome trace-event JSON.

One process-wide :class:`Tracer` (:data:`TRACER`) records *spans* --
named intervals with a start, a duration, and free-form args -- from
every layer of the simulation stack: compiler passes, device-sim program
replays, per-request serving lifecycles, autoscaler decisions, and
report experiments.  The export is the Chrome trace-event format
(``{"traceEvents": [...]}``, each event carrying ``ph``/``ts``/``pid``/
``tid``/``name``), loadable directly in Perfetto or ``chrome://tracing``.

Two clocks share one trace, separated by process id:

* **wall time** (:data:`WALL_PID`) -- real elapsed time, measured with
  ``time.perf_counter()`` relative to the tracer's epoch.  Compiler,
  device, and analysis spans live here; thread id is the real thread.
* **simulated time** (:data:`SIM_PID` / :data:`REQ_PID`) -- the
  discrete-event clock of the serving simulators.  Batch executions and
  autoscaler ticks live on :data:`SIM_PID` (one track per replica);
  per-request lifecycle spans live on :data:`REQ_PID` so 10k overlapping
  requests do not bury the replica timelines.

The disabled path is near-free by construction: :func:`span` returns a
shared no-op context manager without touching the clock, and every
instrumentation site in the hot simulators checks ``TRACER.enabled``
(one attribute load) before building any event.  Library code records
inside :func:`capture`; the CLI's ``--trace-out`` and ``--profile`` flags
(and ``REPRO_TRACE_OUT``) record a whole run and write or print it.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Chrome trace-event "process" ids: one per clock domain.
WALL_PID = 1  # real time (compiler, device, analysis)
SIM_PID = 2  # simulated time: replica/batch/autoscaler tracks
REQ_PID = 3  # simulated time: per-request lifecycle spans

_PROCESS_NAMES = {
    WALL_PID: "wall clock",
    SIM_PID: "simulation (replicas)",
    REQ_PID: "simulation (requests)",
}


@dataclass(frozen=True)
class Span:
    """One finished span: a Chrome trace-event "complete" (``ph: X``) row."""

    name: str
    cat: str
    ts: float  # microseconds since the tracer's epoch (or sim t=0)
    dur: float  # microseconds
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        """The Chrome trace-event dict for this span."""
        event = {
            "name": self.name,
            "cat": self.cat or "default",
            "ph": "X",
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event


class _NullSpan:
    """The shared disabled-path context manager (no state, no clock)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Buffers spans; exports Chrome trace JSON.

    Spans are appended under a lock (compiler and analysis spans can
    come from worker threads); the buffer lives in memory until an
    explicit export, so a traced run costs one list append per span.
    ``report --jobs N`` forks worker *processes* -- spans recorded in
    forked workers die with them, so traced reports should run
    ``--jobs 1`` (the ``--profile`` CLI surface does not force this; it
    simply sees only the parent's spans otherwise).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: list[Span] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------
    def now(self) -> float:
        """Wall microseconds since the tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    def _append(self, span: Span) -> None:
        with self._lock:
            self.events.append(span)

    def span(self, name: str, cat: str = "", **args):
        """Context manager timing a wall-clock span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _WallSpan(self, name, cat, args)

    def record_wall(
        self, name: str, start_us: float, dur_us: float, cat: str = "", **args
    ) -> None:
        """Record an already-measured wall span (``start_us`` from :meth:`now`)."""
        if not self.enabled:
            return
        self._append(
            Span(name, cat, start_us, dur_us, WALL_PID, threading.get_ident() % 2**31, args)
        )

    def sim_span(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        cat: str = "",
        tid: int = 0,
        pid: int = SIM_PID,
        **args,
    ) -> None:
        """Record a simulated-time span (seconds on the event-loop clock)."""
        if not self.enabled:
            return
        self._append(Span(name, cat, start_s * 1e6, max(dur_s, 0.0) * 1e6, pid, tid, args))

    # -- management -----------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self.events.clear()
        self._epoch = time.perf_counter()

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self.events)

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The full trace as a Chrome trace-event JSON object."""
        events: list[dict] = []
        spans = self.snapshot()
        for pid in sorted({s.pid for s in spans}):
            events.append({
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")},
            })
        events.extend(s.to_event() for s in spans)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the number of spans."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return len(self.events)


class _WallSpan:
    """An open wall-clock span; closes into the tracer's buffer."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: Tracer, name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self):
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer._append(Span(
            self._name, self._cat, self._start, tracer.now() - self._start,
            WALL_PID, threading.get_ident() % 2**31, self._args,
        ))
        return False


#: The process-wide tracer every instrumentation point routes through.
TRACER = Tracer()


def span(name: str, cat: str = "", **args):
    """Module-level convenience over :data:`TRACER`."""
    return TRACER.span(name, cat, **args)


@contextmanager
def capture():
    """Enable tracing on a cleared buffer for a scoped block."""
    previous = TRACER.enabled
    TRACER.clear()
    TRACER.enabled = True
    try:
        yield TRACER
    finally:
        TRACER.enabled = previous
