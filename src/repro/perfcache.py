"""Process-wide content-keyed memo tables.

Two questions come back again and again, and each has one table:

* :data:`GLOBAL` -- "how long does a batch of ``n`` occupy platform
  ``P`` running workload ``W``, and when do its responses return?"
  Keyed by ``(platform spec hash, workload structure hash, batch)``.
  The serving sweeps, the SLO-adaptive batcher's budgets (through the
  shared :class:`~repro.serving.fleet.PlatformCurve`), ``latency.sweep``,
  ``datacenter.provisioning``, ``datacenter.autoscaler`` and the
  report's ``--jobs`` fan-out (which warms it *before* forking workers)
  all ask through :func:`occupancy_latency`.
* :data:`GLOBAL_LOWERING` -- "what does the compiler emit for this
  structure at this batch?"  Keyed by :func:`lowering_key`, which
  leaves out the operand widths: the widths change only the two width
  flags of each ``MatrixMultiply``, so the TPU driver replays a hit at
  any of the four Section 2 widths, rewriting just the record's flags
  column, and re-runs only the allocation pass.

Keys are content hashes of the platform's published spec, the model's
structure and the TPU config, not object identities, so two
independently built ``TPUPlatform()`` instances -- or a workload rebuilt
from a JSON scenario round-trip -- share entries, and two models that
share a name but not a structure never do.  Each hash is computed once
per instance and memoized on it, under an attribute of its own key
function, so a lookup costs a dict probe.

Both tables are :class:`PerfCache` instances with one API: ``get`` and
``put``, hit/miss counters (``stats``, ``reset_counters``) and
``invalidate`` by workload and/or platform.  Bypass both with the
:func:`disabled` context manager; cached and uncached results are
identical by construction (a table stores exactly what was computed on
the first miss).  Compiled programs and their profiles are memoized by
the driver (:class:`~repro.compiler.driver.TPUDriver`), not here.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import threading
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.config import TPUConfig
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


def _memoized_on_instance(compute: Callable[[object], str]) -> Callable[[object], str]:
    """Compute a key once per instance and store it on the instance.

    Works on frozen dataclasses too.  A hit costs one dict probe, which
    is what keeps a curve lookup cheap for a model the size of cnn1.
    Each key function stores under its own attribute, so asking one
    function about an object never answers for another.
    """
    attr = f"_perfcache_{compute.__name__}"

    @functools.wraps(compute)
    def key(obj) -> str:
        cached = obj.__dict__.get(attr)
        if cached is None:
            cached = compute(obj)
            object.__setattr__(obj, attr, cached)
        return cached

    return key


@_memoized_on_instance
def platform_key(platform: "Platform") -> str:
    """Stable spec hash of a platform: chip + server + model constants.

    Derived from the *published spec*, not the instance, so equivalent
    platforms built in different processes (or before/after a scenario
    round-trip) key the same entries.
    """
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
    return f"{getattr(platform, 'kind', '?')}:{_digest(spec)}"


@_memoized_on_instance
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


@_memoized_on_instance
def config_key(config) -> str:
    """Stable content hash of a :class:`~repro.core.config.TPUConfig`."""
    return _digest(config)


def lowering_key(config, model: "Model") -> tuple[str, str, int]:
    """Key of one timing-mode lowering's emission output.

    (platform config, layer structure sans batch, batch).  Neither the
    allocator nor the operand widths are part of the key: instruction
    emission addresses tensors through a virtual bump cursor in
    declaration order, so only the allocation metadata -- recomputed on
    every cache hit -- depends on the allocator choice, and the widths
    reach only the ``MatrixMultiply`` flags the hit path rewrites.
    """
    return (config_key(config), model_key(model), model.batch_size)


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
    """A thread-safe memo table over content keys.

    Keys are tuples whose first component names the platform (a
    :func:`platform_key`, or a :func:`config_key` for emission records)
    and whose second names the workload (a :func:`model_key`); that
    layout is what :meth:`invalidate` filters on.  Values are opaque
    and immutable once stored.  A disabled cache stores and counts
    nothing: every :meth:`get` misses silently.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -- core lookup ----------------------------------------------------
    def get(self, key: tuple):
        """The cached value, or None on a miss (or when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
        return value

    def put(self, key: tuple, value) -> None:
        """Store ``value`` unless the key is already filled (or disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._entries.setdefault(key, value)

    # -- curve points ---------------------------------------------------
    def occupancy_latency(
        self, platform: "Platform", model: "Model", batch: int
    ) -> tuple[float, float]:
        """(occupancy, response latency) per batch, memoized process-wide.

        Entries are exact platform evaluations -- interpolation between
        batch sizes stays the curve's business
        (:class:`~repro.serving.fleet.PlatformCurve`).
        """
        key = (platform_key(platform), model_key(model), batch)
        value = self.get(key)
        if value is None:
            value = (
                platform.occupancy_seconds(model, batch),
                platform.service_seconds(model, batch),
            )
            self.put(key, value)
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
        workload: "Model | str | None" = None,
        platform: "Platform | TPUConfig | str | None" = None,
    ) -> int:
        """Drop entries; returns how many were removed.

        ``workload`` (an instance, or a name/key string) and ``platform``
        (an instance, or a ``kind``/key-prefix string) restrict the drop
        to matching entries.  A :class:`~repro.core.config.TPUConfig`
        passed as ``platform`` is keyed by :func:`config_key`, the first
        component of every emission record's key.  With neither, the
        whole table is cleared.
        """
        # Imported on use, so importing perfcache does not load the core
        # package (which reorders the package's imports and raises every
        # process's peak RSS by about 0.7 MiB).
        from repro.core.config import TPUConfig

        if workload is not None and not isinstance(workload, str):
            workload = model_key(workload)
        if isinstance(platform, TPUConfig):
            platform = config_key(platform)
        elif platform is not None and not isinstance(platform, str):
            platform = platform_key(platform)

        def matches(component: str, want: str | None) -> bool:
            return want is None or component == want or component.startswith(f"{want}:")

        with self._lock:
            doomed = [
                key for key in self._entries
                if matches(key[0], platform) and matches(key[1], workload)
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


#: Curve points: (occupancy, latency) per (platform, workload, batch).
GLOBAL = PerfCache()

#: Compiler emission records per :func:`lowering_key`.
GLOBAL_LOWERING = PerfCache()


def occupancy_latency(
    platform: "Platform", model: "Model", batch: int
) -> tuple[float, float]:
    """(occupancy, response latency) per batch on a platform, via :data:`GLOBAL`.

    Occupancy is how long the device is unavailable; latency is when the
    responses come back.  They differ on the TPU, where the host share
    pipelines with device execution.
    """
    return GLOBAL.occupancy_latency(platform, model, batch)


@contextmanager
def disabled():
    """Temporarily bypass both tables (used by the parity-pin tests)."""
    previous = GLOBAL.enabled, GLOBAL_LOWERING.enabled
    GLOBAL.enabled = GLOBAL_LOWERING.enabled = False
    try:
        yield
    finally:
        GLOBAL.enabled, GLOBAL_LOWERING.enabled = previous
