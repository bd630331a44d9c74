"""Run every experiment and render the paper-vs-measured report.

``python -m repro report [output.md] [--only ids] [--jobs N]``
regenerates EXPERIMENTS.md.  Each experiment runs isolated: one failure
is captured (traceback and all) and rendered as a FAILED section
instead of killing the whole report, and ``--jobs N`` fans experiments
out across worker processes.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.analysis import EXPERIMENTS, common
from repro.analysis.common import ExperimentResult

_log = obs.get_logger("repro.analysis.report")

_HEADER = """# EXPERIMENTS -- paper vs measured

Every table and figure of "In-Datacenter Performance Analysis of a Tensor
Processing Unit" (ISCA 2017), regenerated by this repository's simulator
and models.  Absolute agreement is not the goal (our substrate is a
simulator, not Google's fleet); the *shapes* -- who wins, by what factor,
where crossovers fall -- are.  Each section prints measured values with
the paper's numbers alongside.

Known, deliberate deviations, chiefly: per-app CPU/GPU attainment
constants stand in for the unmeasurable production stacks; Table 3's
TOPS row inherits the paper's own counter-vs-production inconsistency;
and our synthetic LSTM1 is heavier per step than Google's, so its
TPU-vs-CPU ratio overshoots.

Regenerate with: `python -m repro report EXPERIMENTS.md`
"""


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's run: a result, or the captured failure."""

    exp_id: str
    result: ExperimentResult | None
    error: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def _run_one(exp_id: str) -> ExperimentOutcome:
    """Run one experiment, capturing any failure.

    Reads this module's ``EXPERIMENTS`` global: in-process callers (and
    tests monkeypatching it) see the patched registry, while worker
    processes re-import the module and get the real one.
    """
    start = time.perf_counter()
    try:
        with obs.span(f"experiment:{exp_id}", cat="analysis"):
            result = EXPERIMENTS[exp_id]()
    except Exception:
        seconds = time.perf_counter() - start
        return ExperimentOutcome(exp_id, None, traceback.format_exc(), seconds)
    return ExperimentOutcome(exp_id, result, None, time.perf_counter() - start)


def select_experiments(exp_ids: list[str] | None) -> list[str]:
    """Validate an id subset (None means the whole registry, in order)."""
    if exp_ids is None:
        return list(EXPERIMENTS)
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {', '.join(unknown)}; try: "
            + ", ".join(EXPERIMENTS)
        )
    return list(exp_ids)


def run_all(
    exp_ids: list[str] | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> dict[str, ExperimentOutcome]:
    """Run experiments with per-experiment error isolation.

    ``jobs > 1`` fans out across processes; results come back in
    registry order either way.
    """
    selected = select_experiments(exp_ids)
    outcomes: dict[str, ExperimentOutcome] = {}
    if jobs > 1 and len(selected) > 1:
        # Precompute-then-fork: fill the compile/profile/curve caches in
        # the parent so every forked worker inherits them warm instead of
        # recompiling the six programs per process.
        common.warm_shared_caches()
        with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
            for outcome in pool.map(_run_one, selected):
                outcomes[outcome.exp_id] = outcome
                _narrate(outcome, verbose)
    else:
        for exp_id in selected:
            outcome = _run_one(exp_id)
            outcomes[exp_id] = outcome
            _narrate(outcome, verbose)
    return outcomes


def _narrate(outcome: ExperimentOutcome, verbose: bool) -> None:
    if not verbose:
        return
    if outcome.ok:
        _log.info("[%s] regenerated in %.1fs", outcome.exp_id, outcome.seconds)
    else:
        _log.error("[%s] FAILED after %.1fs", outcome.exp_id, outcome.seconds)


def render_markdown(
    results: dict[str, ExperimentOutcome | ExperimentResult],
) -> str:
    """Render outcomes (or bare results) into the report body.

    Failed experiments become explicit FAILED sections carrying their
    traceback, so a broken experiment is visible, not silently absent.
    """
    sections = [_HEADER]
    for exp_id, item in results.items():
        if isinstance(item, ExperimentOutcome):
            result, error = item.result, item.error
        else:
            result, error = item, None
        if result is None or error is not None:
            sections.append(f"## {exp_id}: FAILED\n")
            sections.append("```text")
            sections.append((error or "experiment returned no result").rstrip())
            sections.append("```\n")
            continue
        sections.append(f"## {exp_id}: {result.title}\n")
        sections.append("```text")
        sections.append(result.text)
        sections.append("```\n")
    return "\n".join(sections)


def write_report(
    output: str,
    exp_ids: list[str] | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> dict[str, ExperimentOutcome]:
    """Regenerate the report file and return the per-experiment outcomes."""
    outcomes = run_all(exp_ids=exp_ids, jobs=jobs, verbose=verbose)
    with open(output, "w") as handle:
        handle.write(render_markdown(outcomes))
    failed = [o.exp_id for o in outcomes.values() if not o.ok]
    status = f"wrote {output} ({len(outcomes)} experiments"
    status += f", {len(failed)} FAILED: {', '.join(failed)})" if failed else ")"
    if verbose:
        _log.info("%s", status)
    return outcomes


def report_cli(output: str, only: str | None = None, jobs: int = 1) -> int:
    """``python -m repro report``: parse the ``--only`` subset, write the
    report, exit 2 on bad ids, 1 if any experiment failed."""
    exp_ids = (
        [e.strip() for e in only.split(",") if e.strip()] if only else None
    )
    try:
        outcomes = write_report(output, exp_ids=exp_ids, jobs=jobs)
    except ValueError as exc:
        _log.error("report: %s", exc)
        return 2
    return 0 if all(o.ok for o in outcomes.values()) else 1

