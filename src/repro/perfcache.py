"""Process-wide memoized latency/occupancy-curve cache.

The serving sweeps, the SLO-adaptive batcher's candidate probes, the
provisioning search, and the autoscaler all keep asking the same
question -- "how long does a batch of ``n`` occupy platform ``P`` running
workload ``W``, and when do its responses return?" -- and on the TPU each
fresh answer compiles and profiles a model variant.  This module gives
the whole process one answer table, keyed by

    (platform spec hash, workload name + structural params, batch)

so every consumer (``serving.sweep``, ``serving.batcher`` via the shared
:class:`~repro.serving.fleet.PlatformCurve`, ``latency.sweep``,
``datacenter.provisioning``, ``datacenter.autoscaler``, and the report's
``--jobs`` fan-out, which warms this cache *before* forking workers)
hits the same entries.

Keys are content hashes of the platform's published spec and the model's
structure, not object identities, so two independently built
``TPUPlatform()`` instances -- or a workload rebuilt from a JSON scenario
round-trip -- share entries.  The cache is explicitly invalidatable (all
entries, one platform, or one workload) and counts hits and misses so
benchmarks can prove the cache is engaged.

Bypass it with the :func:`disabled` context manager; cached and
uncached results are identical by construction (the cache stores exactly
what the platform computed on the first miss).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.nn.graph import Model
    from repro.platforms.base import Platform


# ----------------------------------------------------------------------
# stable content keys
# ----------------------------------------------------------------------
def _canonical(obj):
    """A JSON-serializable canonical form of specs, configs, and models."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if hasattr(obj, "items"):  # MappingProxyType (Model.residual_sources)
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _digest(payload) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def platform_key(platform: "Platform") -> str:
    """Stable spec hash of a platform: chip + server + model constants.

    Derived from the *published spec*, not the instance, so equivalent
    platforms built in different processes (or before/after a scenario
    round-trip) key the same entries.  Memoized per instance -- hashing
    is cheap but the probes are hot.
    """
    cached = platform.__dict__.get("_perfcache_key")
    if cached is not None:
        return cached
    spec: dict = {
        "class": type(platform).__name__,
        "kind": getattr(platform, "kind", "?"),
        "chip": getattr(platform, "chip", None),
        "server": getattr(platform, "server", None),
        "p99_factor": getattr(platform, "p99_factor", None),
    }
    # The TPU's timing derives from its architectural config; the
    # analytic platforms from their calibration constants.
    for attr in (
        "config",
        "efficiency",
        "default_efficiency",
        "batch_overhead_s",
        "per_example_host_s",
    ):
        if hasattr(platform, attr):
            spec[attr] = getattr(platform, attr)
    key = f"{getattr(platform, 'kind', '?')}:{_digest(spec)}"
    try:
        platform.__dict__["_perfcache_key"] = key
    except (AttributeError, TypeError):  # frozen/slotted platforms
        pass
    return key


def model_key(model: "Model") -> str:
    """Stable structural hash of a workload, *excluding* its native batch.

    Batch size is the cache key's third component, and every consumer
    evaluates explicit batches, so ``replace(model, batch_size=n)``
    variants of one workload share a single curve.
    """
    spec = {
        "name": model.name,
        "layers": model.layers,
        "input_shape": model.input_shape,
        "residual_sources": model.residual_sources,
    }
    return f"{model.name}:{_digest(spec)}"


def config_key(config) -> str:
    """Stable content hash of a :class:`~repro.core.config.TPUConfig`."""
    cached = getattr(config, "_perfcache_key", None)
    if cached is not None:
        return cached
    key = _digest(config)
    try:
        object.__setattr__(config, "_perfcache_key", key)
    except (AttributeError, TypeError):  # slotted configs
        pass
    return key


def lowering_key(
    config, model: "Model", weight_bits: int = 8, activation_bits: int = 8
) -> tuple[str, str, int, int, int]:
    """Key of one timing-mode lowering's emission output.

    (platform config, layer structure sans batch, batch, operand widths).
    The allocator is deliberately *not* part of the key: instruction
    emission addresses tensors through a virtual bump cursor in
    declaration order, so only the allocation metadata -- recomputed on
    every cache hit -- depends on the allocator choice.
    """
    return (
        config_key(config),
        model_key(model),
        model.batch_size,
        weight_bits,
        activation_bits,
    )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting snapshot."""

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PerfCache:
    """A memo table of (occupancy, latency) seconds per curve point.

    Thread-safe; one process-wide instance lives at
    :data:`repro.perfcache.GLOBAL`.  Entries are exact platform
    evaluations -- interpolation between batch sizes stays the curve's
    business (:class:`~repro.serving.fleet.PlatformCurve`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: dict[tuple[str, str, int], tuple[float, float]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -- core lookup ----------------------------------------------------
    def occupancy_latency(
        self, platform: "Platform", model: "Model", batch: int
    ) -> tuple[float, float]:
        """(occupancy, response latency) per batch, memoized process-wide."""
        if not self.enabled:
            return (
                platform.occupancy_seconds(model, batch),
                platform.service_seconds(model, batch),
            )
        key = (platform_key(platform), model_key(model), batch)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                return cached
        value = (
            platform.occupancy_seconds(model, batch),
            platform.service_seconds(model, batch),
        )
        with self._lock:
            self._misses += 1
            self._entries.setdefault(key, value)
        return value

    def warm(
        self, platform: "Platform", model: "Model", batches: Iterable[int]
    ) -> None:
        """Precompute a batch grid (the precompute-then-fork warm pass)."""
        for batch in batches:
            self.occupancy_latency(platform, model, int(batch))

    # -- management -----------------------------------------------------
    def invalidate(
        self,
        platform: "Platform | str | None" = None,
        workload: "Model | str | None" = None,
    ) -> int:
        """Drop entries; returns how many were removed.

        ``platform`` / ``workload`` restrict the drop to one platform
        (instance or ``kind``/key prefix string) or one workload
        (instance or name).  With neither, the whole table is cleared.
        """
        pkey = None
        if platform is not None:
            pkey = platform if isinstance(platform, str) else platform_key(platform)
        wkey = None
        if workload is not None:
            wkey = workload if isinstance(workload, str) else model_key(workload)
        with self._lock:
            if pkey is None and wkey is None:
                removed = len(self._entries)
                self._entries.clear()
                return removed
            doomed = [
                key
                for key in self._entries
                if (pkey is None or key[0] == pkey or key[0].startswith(f"{pkey}:"))
                and (wkey is None or key[1] == wkey or key[1].startswith(f"{wkey}:"))
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def reset_counters(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, entries=len(self._entries)
            )


class LoweringCache:
    """Process-wide memo of compiled-program *emission records*.

    The compiler's pass structure splits a timing-mode lowering into an
    allocator-independent emission (instructions, dependency tokens,
    tiles, scales -- the expensive part) and a cheap allocation pass.
    This cache stores the emission keyed by :func:`lowering_key`, so
    sweep points that recompile the same workload structure -- curve
    anchors, fresh drivers, the Table 8 static-allocator study -- replay
    the cached emission and pay only for allocation.

    Values are opaque to the cache (the compiler stores its own record
    type); entries are immutable once stored, so cached and uncached
    compiles share the very same instruction objects and stay
    byte-identical by construction.  Bypass it with :func:`disabled`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: tuple):
        """The cached record, or None on a miss (or when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            record = self._entries.get(key)
            if record is not None:
                self._hits += 1
            else:
                self._misses += 1
        return record

    def put(self, key: tuple, record) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries.setdefault(key, record)

    def invalidate(self, workload: "Model | str | None" = None) -> int:
        """Drop entries (all, or one workload by instance or name)."""
        with self._lock:
            if workload is None:
                removed = len(self._entries)
                self._entries.clear()
                return removed
            wkey = workload if isinstance(workload, str) else model_key(workload)
            doomed = [
                key
                for key in self._entries
                if key[1] == wkey or key[1].startswith(f"{wkey}:")
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def reset_counters(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, entries=len(self._entries)
            )


#: The process-wide cache every consumer routes through.
GLOBAL = PerfCache()

#: The process-wide emission memo the compiler driver routes through.
GLOBAL_LOWERING = LoweringCache()


def _collect_metrics() -> dict:
    """Publish the bespoke hit/miss counters through the metrics registry.

    Pull-based (:func:`repro.obs.register_collector`), so the cache's hot
    lookup path stays untouched: snapshots read the same counters the
    benchmarks already report, and ``repro.obs.metrics_snapshot()`` shows
    them as ``perfcache.hits`` / ``perfcache.misses`` / ``perfcache.
    entries`` / ``perfcache.hit_rate`` alongside every other metric.
    """
    stats = GLOBAL.stats()
    return {
        "enabled": GLOBAL.enabled,
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "hit_rate": stats.hit_rate,
    }


obs.register_collector("perfcache", _collect_metrics)


def _collect_lowering_metrics() -> dict:
    stats = GLOBAL_LOWERING.stats()
    return {
        "enabled": GLOBAL_LOWERING.enabled,
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "hit_rate": stats.hit_rate,
    }


obs.register_collector("lowering_cache", _collect_lowering_metrics)


def get_cache() -> PerfCache:
    return GLOBAL


def occupancy_latency(
    platform: "Platform", model: "Model", batch: int
) -> tuple[float, float]:
    """Module-level convenience over :data:`GLOBAL` (the hot entrypoint)."""
    return GLOBAL.occupancy_latency(platform, model, batch)


@contextmanager
def disabled():
    """Temporarily bypass both caches (used by the parity-pin tests)."""
    previous = GLOBAL.enabled
    previous_lowering = GLOBAL_LOWERING.enabled
    GLOBAL.enabled = False
    GLOBAL_LOWERING.enabled = False
    try:
        yield
    finally:
        GLOBAL.enabled = previous
        GLOBAL_LOWERING.enabled = previous_lowering
