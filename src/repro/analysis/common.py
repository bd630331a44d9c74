"""Shared experiment infrastructure: workload/platform registries, results."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.device import ExecutionResult
from repro.compiler.driver import CompiledModel
from repro.nn.graph import Model
from repro.nn.workloads import build_workload, paper_workloads
from repro.platforms.base import Platform
from repro.platforms.cpu import HaswellPlatform
from repro.platforms.gpu import K80Platform
from repro.platforms.tpu import TPUPlatform


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated table or figure.

    The registry entry that runs it stamps its ``title``
    (:class:`repro.api.Experiment`), so ``repro list`` and the report
    header read one string.
    """

    exp_id: str
    text: str
    measured: dict = field(default_factory=dict)
    paper: dict = field(default_factory=dict)
    title: str = ""

    def __str__(self) -> str:
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"

    def to_dict(self) -> dict:
        """JSON-safe dump (tuple keys stringified, numpy scalars unwrapped)."""
        from repro.api.result import jsonable

        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "text": self.text,
            "measured": jsonable(self.measured),
            "paper": jsonable(self.paper),
        }


@lru_cache(maxsize=1)
def workloads() -> dict[str, Model]:
    """The Table 1 six only -- every paper-parity surface iterates this."""
    return paper_workloads()


@lru_cache(maxsize=None)
def workload(name: str) -> Model:
    """Resolve any registered workload (paper or extension) by name.

    Paper names return the shared instances from :func:`workloads`;
    extensions are built once and kept here.
    """
    models = workloads()
    if name in models:
        return models[name]
    return build_workload(name)


@lru_cache(maxsize=1)
def platforms() -> dict[str, Platform]:
    return {"cpu": HaswellPlatform(), "gpu": K80Platform(), "tpu": TPUPlatform()}


def compiled(app: str) -> CompiledModel:
    """A paper app's timing-mode program (the TPU driver memoizes it)."""
    return platforms()["tpu"].driver.compile(workloads()[app])


def profiled(app: str) -> ExecutionResult:
    """Its timing run (memoized on the compiled program)."""
    return platforms()["tpu"].driver.profile(compiled(app))


def warm_shared_caches(curve_workloads: tuple[str, ...] = ("mlp0",)) -> None:
    """Precompute-then-fork: fill every process-wide cache in the parent.

    ``report --jobs N`` forks its workers (Linux), so anything computed
    *before* the pool spawns -- the workload and platform registries,
    the TPU driver's compiled programs and their profiles, the emission
    records in ``perfcache.GLOBAL_LOWERING`` and the curve points in
    ``perfcache.GLOBAL`` -- is inherited by every worker for free
    instead of being recomputed N times.  ``curve_workloads`` names the
    models whose serving curves the experiments sweep.
    """
    from repro import perfcache
    from repro.platforms.base import BATCH_CANDIDATES

    plats = platforms()
    for app in workloads():
        profiled(app)
    for name in curve_workloads:
        model = workload(name)
        batches = sorted(set(BATCH_CANDIDATES) | {1, model.batch_size})
        for platform in plats.values():
            perfcache.GLOBAL.warm(platform, model, batches)
