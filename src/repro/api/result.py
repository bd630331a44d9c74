"""Structured scenario results: typed rows + metadata + rendering.

Every entry point used to print free text; :class:`ScenarioResult` keeps
the human-readable rendering *and* the machine-readable rows, so the CLI
``--json`` flag, the parameterized experiments, and sweep aggregation
all read the same structure.  ``jsonable`` scrubs numpy scalars and
tuple keys so ``to_dict`` output always survives ``json.dumps``
unchanged.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any


def jsonable(value: Any) -> Any:
    """Recursively convert a value into JSON-native types.

    numpy scalars (``np.float64``, ``np.bool_``, ...) are unwrapped via
    ``.item()``, tuples become lists, non-string dict keys are
    stringified, and anything else unrecognized falls back to ``str``.
    """
    if value is None or isinstance(value, (str, int, float)):
        # Covers bool (int subclass) and np.float64 (float subclass).
        return value.item() if hasattr(value, "item") else value
    if isinstance(value, Mapping):
        return {
            (k if isinstance(k, str) else str(k)): jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item):
        try:
            return jsonable(value.item())
        except (TypeError, ValueError):
            return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    return str(value)


@dataclass
class ScenarioResult:
    """What :func:`repro.api.run` returns for any scenario.

    * ``rows`` -- the measurement table as JSON-native dicts (one row
      per operating point / platform plan / profiled workload);
    * ``metadata`` -- the echoed scenario plus derived context
      (resolved batch size, capacity, best operating point, ...);
    * ``text``/``summary`` -- the preformatted human rendering the CLI
      prints (``render`` joins them); experiments embed ``text`` or
      ``render()`` as their sections, so a report table and a
      subcommand's output are the same bytes;
    * ``notes`` -- advisory lines the CLI routes to stderr.
    """

    kind: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    text: str = ""
    summary: str = ""
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        """The human-readable report (tables + summary)."""
        return "\n\n".join(part for part in (self.text, self.summary) if part)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe structural dump (stable across CLI and library)."""
        return {
            "kind": self.kind,
            "title": self.title,
            "rows": jsonable(self.rows),
            "metadata": jsonable(self.metadata),
            "text": self.text,
            "summary": self.summary,
            "notes": list(self.notes),
        }
