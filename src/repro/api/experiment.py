"""Parameterized experiments: registry entries that carry their spec.

The analysis registry used to map ids to opaque zero-argument callables;
an :class:`Experiment` keeps that call signature (``EXPERIMENTS[id]()``
still works) but also exposes the default :class:`ScenarioSpec` the
experiment runs with, so ``repro list``/``repro experiment --spec`` can
introspect it and callers can re-run the experiment on a modified spec.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.api.spec import ScenarioSpec, SpecError


@dataclass(frozen=True)
class Experiment:
    """One registry entry: a runner plus its (optional) default scenario.

    * ``scenario is None`` -- a pure paper reproduction (tables/figures)
      with nothing to parameterize; ``runner`` takes no arguments.
    * ``scenario`` set -- ``runner(scenario)`` regenerates the result
      for any compatible spec; calling the experiment runs the default.
      ``honors`` names the spec fields the runner actually reads (an
      experiment that sweeps platforms internally cannot honor a
      ``platform`` override); ``with_scenario`` rejects overrides of
      any other field instead of silently mislabeling results.
    """

    exp_id: str
    title: str
    runner: Callable[..., Any]
    scenario: ScenarioSpec | None = None
    #: Spec fields the runner reads; None means every field.
    honors: tuple[str, ...] | None = None

    def __call__(self) -> Any:
        """Run with the default spec; returns an ``ExperimentResult``."""
        if self.scenario is None:
            return self._titled(self.runner())
        return self._titled(self.runner(self.scenario))

    def _titled(self, result: Any) -> Any:
        """The runner's result under this entry's title, the one string
        ``repro list`` and the report header both print."""
        return dataclasses.replace(result, title=self.title)

    def with_scenario(self, scenario: ScenarioSpec) -> Any:
        """Run on a caller-supplied spec (same kind as the default)."""
        if self.scenario is None:
            raise SpecError(
                f"experiment {self.exp_id!r} is a fixed paper reproduction "
                "and takes no scenario"
            )
        if scenario.kind != self.scenario.kind:
            raise SpecError(
                f"experiment {self.exp_id!r} expects a "
                f"{self.scenario.kind!r} scenario, got {scenario.kind!r}"
            )
        if self.honors is not None:
            ignored = sorted(
                field for field, value in scenario.to_dict().items()
                if field != "kind" and field not in self.honors
                and value != self.scenario.to_dict()[field]
            )
            if ignored:
                raise SpecError(
                    f"experiment {self.exp_id!r} does not honor "
                    f"{', '.join(ignored)}; it only reads: "
                    + ", ".join(self.honors)
                )
        return self._titled(self.runner(scenario))

    def describe(self) -> dict[str, Any]:
        """Spec introspection for ``repro list --json`` / ``--spec``."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "parameterized": self.scenario is not None,
            "scenario": None if self.scenario is None else self.scenario.to_dict(),
            "honors": None if self.honors is None else list(self.honors),
        }
