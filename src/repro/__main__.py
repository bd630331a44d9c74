"""Command-line interface: ``python -m repro <command>``.

Every scenario subcommand is a thin argparse -> :class:`ScenarioSpec`
adapter over the :func:`repro.run` facade, and its flags are generated
from the spec dataclass: each scalar (or flat-tuple) field becomes one
``--field-name`` flag whose type, default, choices and help come from
the field itself, so ``python -m repro <kind> --help`` is the flag
reference.  A flag left out keeps the dataclass default.  Flags build a
declarative scenario, ``--config scenario.json`` loads one from disk
instead, and ``--json`` prints the structured :class:`ScenarioResult`
rather than the rendered text.  ``python -m repro serve --config
spec.json --json`` and ``repro.run(ServeScenario(...))`` are the same
computation.

Commands:

* ``profile <workload>`` -- compile any registered workload (Table 1
  six or a transformer extension) and print its cycle breakdown (Table 3
  style);
* ``experiment <id>``   -- regenerate one table/figure (e.g. ``table6``);
  ``--spec`` introspects its default scenario;
* ``report [path]``     -- regenerate every experiment into a markdown
  report (defaults to EXPERIMENTS.md); failures are isolated per
  experiment, ``--jobs N`` runs across processes, ``--only`` subsets;
* ``serve``             -- run the fleet serving simulator: sweep offered
  load on N replicas under a p99 SLO and print the p99-vs-throughput
  operating curve (the Table 4 mechanism, generalized);
* ``datacenter``        -- energy-aware capacity planning: provision the
  cheapest SLO-feasible fleet per platform under diurnal traffic, price
  it (Watts, joules/request, $/Mreq), and race autoscaling policies;
* ``globe``             -- planet-scale multi-region serving: route each
  region's phase-offset diurnal demand across the world's clusters and
  price it with the hybrid queueing/event backend (millions of requests
  in seconds; ``--backend exact`` event-simulates small traces);
* ``llm``               -- iteration-level transformer decode serving:
  continuous vs fixed batching under the KV-cache capacity budget,
  optionally disaggregated into prefill/decode pools with per-pool
  autoscaling, emitting tokens/sec-per-chip vs p99 time-per-token;
* ``list``              -- list workloads, experiment ids, and scenario
  kinds (``--json`` for the introspectable registry).

``profile``/``report``/``serve``/``datacenter``/``globe``/``llm``
additionally take
``--trace-out TRACE.json`` (span tracing on, written as a Chrome
trace-event JSON to open in Perfetto) and ``--profile`` (span-time
summary table on stderr); ``REPRO_TRACE_OUT=trace.json`` in the
environment does what ``--trace-out`` does without touching the command
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

#: Scenario fields taken as a positional argument instead of a flag;
#: required unless ``--config`` is given.
_POSITIONAL = {"profile": "workload"}

_SCALARS = (str, int, float, bool)


def _print_result(result, as_json: bool) -> None:
    """Shared result printing: notes to stderr, body (or JSON) to stdout."""
    if as_json:
        print(json.dumps(result.to_dict(), indent=2))
        return
    for note in result.notes:
        print(note, file=sys.stderr)
    rendered = result.render()
    if rendered:
        print(rendered)


def _load_config(path: str, kind: str):
    """Load a scenario config and check it fits the invoking subcommand."""
    from repro.api import SpecError, SweepSpec, load_scenario

    scenario = load_scenario(path)
    found = scenario.base.kind if isinstance(scenario, SweepSpec) else scenario.kind
    if found != kind:
        raise SpecError(
            f"{path} holds a {found!r} scenario; run it with "
            f"`python -m repro {found} --config {path}`"
        )
    return scenario


def scenario_from_args(args: argparse.Namespace):
    """The scenario a scenario subcommand's flags (or ``--config``) describe.

    Only the flags actually given reach the constructor; every other
    field keeps its dataclass default.
    """
    from repro.api import SpecError
    from repro.api.spec import DEFAULT_REGIONS

    if args.config:
        return _load_config(args.config, args.command)
    cls = args.scenario_cls
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}
    positional = _POSITIONAL.get(args.command)
    if positional is not None and positional not in given:
        raise SpecError(f"give a {positional} (see `python -m repro list`) "
                        "or --config scenario.json")
    if args.command == "serve" and "trace" in given:
        ignored = [f"--{name}" for name in ("traffic", "loads") if name in given]
        if ignored:
            print(f"serve: --trace replays recorded arrivals; ignoring "
                  f"{'/'.join(ignored)}", file=sys.stderr)
    if args.command == "globe" and "rate" in args:
        given["regions"] = tuple(
            dataclasses.replace(r, rate_rps=args.rate) for r in DEFAULT_REGIONS
        )
    return cls(**given)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.api import run

    try:
        result = run(scenario_from_args(args))
    except (ValueError, OSError) as exc:
        # Bad flags (a SpecError is a ValueError), configs and trace files
        # carry their own message; surface it as a CLI error, not a traceback.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS
    from repro.api.spec import scenario_kinds
    from repro.nn.workloads import EXTENSION_WORKLOAD_NAMES, PAPER_WORKLOAD_NAMES

    if args.json:
        print(json.dumps({
            "workloads": list(PAPER_WORKLOAD_NAMES) + list(EXTENSION_WORKLOAD_NAMES),
            "paper_workloads": list(PAPER_WORKLOAD_NAMES),
            "extension_workloads": list(EXTENSION_WORKLOAD_NAMES),
            "experiments": {
                exp_id: exp.describe() for exp_id, exp in EXPERIMENTS.items()
            },
            "scenario_kinds": list(scenario_kinds()),
        }, indent=2))
        return 0
    print("paper workloads (Table 1): " + ", ".join(PAPER_WORKLOAD_NAMES))
    print("extension workloads:       " + ", ".join(EXTENSION_WORKLOAD_NAMES)
          + "  (see docs/WORKLOADS.md)")
    print("experiments: " + ", ".join(EXPERIMENTS))
    print("scenarios:  " + ", ".join(scenario_kinds())
          + "  (see `--config`/`--json` on profile/serve/datacenter/globe/llm)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    exp = EXPERIMENTS.get(args.exp_id)
    if exp is None:
        print(f"unknown experiment {args.exp_id!r}; try: "
              + ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2
    if args.spec:
        print(json.dumps(exp.describe(), indent=2))
        return 0
    result = exp()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import report_cli

    return report_cli(args.output, only=args.only, jobs=args.jobs)


def _add_scenario_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="SCENARIO.json",
                        help="load the scenario from a JSON config file "
                             "(other scenario flags are ignored)")
    parser.add_argument("--json", action="store_true",
                        help="print the structured ScenarioResult as JSON")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="TRACE.json",
                        help="record spans and write a Chrome trace-event "
                             "JSON (open in Perfetto / chrome://tracing)")
    parser.add_argument("--profile", action="store_true",
                        help="print a span-time summary table to stderr "
                             "after the run")


def _flag_type(hint: object) -> tuple[type, bool] | None:
    """``(item type, is_tuple)`` of a scalar or flat-tuple field, else None.

    Scalars are str/int/float/bool, each optionally ``| None``.  Nested
    fields (the globe's region tree and RTT triples) stay config-only.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = set(args) - {Ellipsis}
        item = items.pop() if len(items) == 1 else None
        return (item, True) if item in _SCALARS else None
    if args:  # ``X | None``
        args = tuple(a for a in args if a is not type(None))
        hint = args[0] if len(args) == 1 else None
    return (hint, False) if hint in _SCALARS else None


def _comma_list(item: type):
    """argparse ``type`` of a tuple flag: comma-separated, empty items skipped."""
    def parse(text: str) -> tuple:
        return tuple(item(part.strip()) for part in text.split(",") if part.strip())

    parse.__name__ = f"comma-separated {item.__name__}"  # argparse names it on error
    return parse


def _add_scenario_command(sub, cls, **kwargs) -> argparse.ArgumentParser:
    """A subcommand with one flag per scalar or flat-tuple field of ``cls``.

    Name, type, choices, help and the default shown in the help all come
    from the field.  Flags default to "not given", so a flag left out
    keeps the dataclass default.
    """
    parser = sub.add_parser(cls.kind, **kwargs)
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        flag_type = _flag_type(hints[f.name])
        if flag_type is None:
            continue
        item, is_tuple = flag_type
        if f.name == _POSITIONAL.get(cls.kind):
            parser.add_argument(f.name, nargs="?", default=argparse.SUPPRESS,
                                help=f.metadata["help"])
            continue
        shown = ",".join(map(str, f.default)) if is_tuple else f.default
        options = {"default": argparse.SUPPRESS,
                   "help": f"{f.metadata['help']} (default: {shown})"}
        if item is bool:
            options["action"] = "store_true"
        elif is_tuple:
            options["type"] = _comma_list(item)
        else:
            options.update(type=item, choices=f.metadata["choices"])
        parser.add_argument("--" + f.name.replace("_", "-"), **options)
    _add_scenario_io(parser)
    _add_obs_flags(parser)
    parser.set_defaults(fn=_cmd_scenario, scenario_cls=cls)
    return parser


def build_parser() -> argparse.ArgumentParser:
    from repro.api.spec import (
        DEFAULT_REGIONS,
        DatacenterScenario,
        GlobalScenario,
        LLMServeScenario,
        ProfileScenario,
        ServeScenario,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPU ISCA-2017 reproduction: simulate, analyze, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list workloads, experiments, "
                                         "and scenario kinds")
    lister.add_argument("--json", action="store_true",
                        help="dump the registries (with default specs) as JSON")
    lister.set_defaults(fn=_cmd_list)

    _add_scenario_command(sub, ProfileScenario, help="simulate one workload")

    experiment = sub.add_parser("experiment", help="regenerate one table/figure")
    experiment.add_argument("exp_id", help="e.g. table6, figure9, tpu_prime")
    experiment.add_argument("--spec", action="store_true",
                            help="print the experiment's default scenario "
                                 "spec instead of running it")
    experiment.add_argument("--json", action="store_true",
                            help="print the ExperimentResult (text + "
                                 "measured + paper dicts) as JSON")
    experiment.set_defaults(fn=_cmd_experiment)

    report = sub.add_parser("report", help="regenerate the full report")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    report.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated experiment ids (default: all)")
    report.add_argument("--jobs", type=int, default=1,
                        help="run experiments across N processes (default 1; "
                             "traced spans stay in-process, so trace with 1)")
    _add_obs_flags(report)
    report.set_defaults(fn=_cmd_report)

    _add_scenario_command(
        sub, ServeScenario,
        help="simulate a serving fleet under a p99 SLO (Table 4 at scale)",
        description="Event-driven fleet serving simulation: sweep offered "
        "load across N replicas and print the p99-vs-throughput operating "
        "curve plus the max sustainable throughput under the SLO.",
    )
    _add_scenario_command(
        sub, DatacenterScenario,
        help="provision, autoscale, and price an SLO-bound fleet "
        "(Figure 10's energy penalty at datacenter load)",
        description="Energy-aware capacity planning: find the smallest "
        "fleet of each platform meeting the p99 SLO under diurnal traffic, "
        "integrate its busy/idle timeline through the calibrated power "
        "curves (average vs peak Watts, energy per request), price it with "
        "a CapEx+energy TCO model, and compare static, reactive, and "
        "predictive autoscaling on the largest fleet.",
    )
    globe = _add_scenario_command(
        sub, GlobalScenario,
        help="planet-scale multi-region serving on the hybrid "
        "queueing/event backend",
        description="Simulate a multi-region fleet: phase-offset diurnal "
        "demand per region, a global routing policy (latency, cost, or "
        "spillover-on-saturation), and a hybrid backend that prices each "
        "(cluster, time-bin) cell with closed-form queueing, the exact "
        "event engine, or a fluid backlog depending on its distance from "
        "the SLO knee.  The default world is three regions a third of a "
        "cycle apart; region/cluster trees beyond the defaults come from "
        "--config.",
    )
    globe.add_argument("--rate", type=float, default=argparse.SUPPRESS,
                       help="set rate_rps, the mean req/s, of every default "
                            "region (default: " + "/".join(
                                f"{r.rate_rps:g}" for r in DEFAULT_REGIONS) + ")")
    _add_scenario_command(
        sub, LLMServeScenario,
        help="iteration-level (continuous) transformer decode serving "
             "under the KV-cache capacity budget",
        description="Sweep offered load over an iteration-level decode "
        "fleet: requests join/leave the running batch per token, the KV "
        "cache is charged against the Unified Buffer, and a full cache "
        "evicts to the head of the queue.  --scheduler fixed is the "
        "request-level gang baseline; --mode disaggregated splits "
        "prefill and decode pools with a KV transfer hop.",
    )
    return parser


def _with_obs(args: argparse.Namespace) -> int:
    """Dispatch a parsed command, honoring its observability flags.

    Records spans around the command, then exports: Chrome trace JSON
    to ``--trace-out`` (or ``REPRO_TRACE_OUT``), and the span-time
    summary table to stderr for ``--profile``.
    """
    from repro import obs

    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        trace_out = os.environ.get("REPRO_TRACE_OUT") or None
    profiling = getattr(args, "profile", False)
    if not (trace_out or profiling):
        return args.fn(args)

    try:
        with obs.capture():
            return args.fn(args)
    finally:
        if trace_out:
            n = obs.TRACER.write_chrome(trace_out)
            print(f"wrote {trace_out} ({n} spans); load it in "
                  f"https://ui.perfetto.dev", file=sys.stderr)
        if profiling:
            print(obs.span_summary(obs.TRACER.snapshot()).render(),
                  file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _with_obs(args)


if __name__ == "__main__":
    raise SystemExit(main())
