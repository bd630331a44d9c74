"""The metrics registry: counters, gauges, and histograms for every layer.

One process-wide :class:`MetricsRegistry` (:data:`REGISTRY`) holds named
instruments the instrumented subsystems record into:

* **counters** -- monotonically increasing totals (requests served,
  device runs, compile-cache hits);
* **gauges** -- last-written values (replicas provisioned, per-experiment
  wall seconds);
* **histograms** -- distributions (batch sizes, queue waits, per-unit
  cycle shares), summarized as count/sum/min/max/mean plus percentiles
  over a bounded sample reservoir.

Recording is gated on the registry's ``enabled`` flag *inside* every
instrument, so a disabled registry mutates nothing; hot simulator paths
additionally check ``REGISTRY.enabled`` once per run and skip the calls
entirely.  ``REPRO_METRICS=1`` enables recording from the environment; the
``--profile`` CLI flag enables it per run.

Pull-based **collectors** cover subsystems that already keep their own
counters (e.g. :mod:`repro.perfcache`): a collector is a zero-argument
callable returning a flat dict, merged into :func:`snapshot` under its
registered prefix at read time -- zero per-event overhead, one source of
truth.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable

#: Histogram sample reservoir cap; scalar stats stay exact beyond it.
MAX_SAMPLES = 100_000


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self.value += amount


class Gauge:
    """A last-written value (None until first set)."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self.value: float | None = None

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = float(value)


class Histogram:
    """A value distribution: exact scalar stats + a bounded reservoir."""

    __slots__ = ("_registry", "count", "total", "min", "max", "_samples")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < MAX_SAMPLES:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Percentile over the reservoir (nearest-rank; 0 when empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(int(q / 100.0 * len(ordered)), len(ordered) - 1)
        return ordered[rank]

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named instruments plus pull-based collectors, process-wide."""

    def __init__(self, enabled: bool | None = None) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_METRICS", "0") not in ("", "0")
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}
        self._lock = threading.Lock()

    # -- instrument factories (create-or-get) ---------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(self))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(self))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(self))
        return instrument

    def register_collector(self, prefix: str, collect: Callable[[], dict]) -> None:
        """Merge ``collect()`` under ``prefix.`` at every :meth:`snapshot`."""
        self._collectors[prefix] = collect

    # -- read side ------------------------------------------------------
    def snapshot(self) -> dict:
        """Every instrument and collector as one flat-keyed dict."""
        out: dict = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            if gauge.value is not None:
                out[name] = gauge.value
        for name, hist in sorted(self._histograms.items()):
            if hist.count:
                out[name] = hist.summary()
        for prefix, collect in sorted(self._collectors.items()):
            for key, value in collect().items():
                out[f"{prefix}.{key}"] = value
        return out

    def reset(self) -> None:
        """Drop every recorded value (collectors stay registered)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumentation point routes through.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def metrics_enabled() -> bool:
    return REGISTRY.enabled


def set_metrics(enabled: bool) -> None:
    REGISTRY.enabled = enabled


def register_collector(prefix: str, collect: Callable[[], dict]) -> None:
    REGISTRY.register_collector(prefix, collect)


def metrics_snapshot() -> dict:
    return REGISTRY.snapshot()
