"""Benchmark driver for the TPU simulator (host time, one process, one thread).

    python3 perfbench/run.py --workload programs --seed 1 --seconds 20 --trace 0

Runs one workload's op list in a closed loop (the next op starts when the
previous one returns), times every op from outside, checks every op's
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  README.md in this directory describes the workloads and
what each metric should move.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Thread-pool sizes pinned to one before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics (``--trace 0``), with units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ref_err_pct", "%"),
)

#: Processes whose set-up is timed per run (this one plus fresh children).
SETUP_SAMPLES = 5

#: Ops beyond the tail percentile ``op_tail_ms`` reports.
TAIL_OPS = 10

#: Op times are reported at a reference host speed.  A shared host's
#: speed swings by a quarter from one second to the next, so every op is
#: bracketed by a fixed pure-Python loop and its time is scaled by
#: CALIBRATION_REF_S over the loop's mean time around it.  The loop
#: slows with the host but not with the simulator, so the ratio keeps a
#: change in the simulator's speed and drops the host's drift.  Set-up
#: time is scaled by one probe taken right after set-up.
CALIBRATION_LOOPS = 40_000
CALIBRATION_REF_S = 0.003

CHILD_TIMEOUT_S = 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only times set-up, or only runs the
    # ops untraced (the baseline of the trace overhead).
    parser.add_argument("--child", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _warn(message: str) -> None:
    sys.stderr.write(message + "\n")


def _pin_environment() -> None:
    """One thread per pool, and the simulator's default configuration.

    BLAS/OpenMP pools would measure the scheduler of a shared machine;
    ``REPRO_*`` switches (tracing, metrics, cache and fast-path flags)
    would measure another configuration than the one users run.
    """
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ.update({var: "1" for var in THREAD_VARS})


def _setup(wl, args):
    ctx = wl.setup(args.workload)
    return ctx, [wl.bind(ctx, spec) for spec in wl.plan(args.workload, args.seed, args.seconds)]


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop (the host-speed probe)."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def run_ops(ops):
    """Run each op closed-loop; returns (latencies in s, failure messages).

    Latencies are at reference host speed (see CALIBRATION_REF_S).  Every
    message starts with the failed op's name.
    """
    latencies, failures = [], []
    for op in ops:
        try:
            call = op.prepare()
            before = calibration_s()
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
            probe = (before + calibration_s()) / 2
            latencies.append(elapsed * CALIBRATION_REF_S / probe)
            problems = op.check(result)
        except Exception:
            problems = [traceback.format_exc()]
        failures += [f"{op.spec.name} {p}" for p in problems]
    return latencies, failures


def tail(latencies):
    """The highest-percentile latency with at least TAIL_OPS ops above it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_OPS - 1)]


def _child(args, mode: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--child", mode]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _warn(f"perfbench: simulator sources not found at {SRC}")
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    import pb_workloads as wl

    if args.workload not in wl.WORKLOADS:
        _warn(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {', '.join(wl.WORKLOADS)}")
        return 2
    if args.trace and not args.child:
        return _traced(args, wl)
    ctx, ops = _setup(wl, args)
    setup_s = (time.perf_counter() - _T0) * CALIBRATION_REF_S / calibration_s()
    if args.child == "setup":
        _emit({"setup_s": setup_s})
        return 0
    latencies, failures = run_ops(ops)
    if args.child == "untraced":
        _emit({"ops_s": sum(latencies)})
        return 0

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        ref_err_pct, problems = wl.reference_error_pct(ctx)
    except Exception:
        ref_err_pct, problems = float("nan"), [traceback.format_exc()]
    setups = [setup_s] + [_child(args, "setup")["setup_s"]
                          for _ in range(SETUP_SAMPLES - 1)]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "op_tail_ms": tail(latencies) * 1e3 if latencies else 0.0,
        "peak_rss_mib": peak_rss_mib,
        "ref_err_pct": ref_err_pct,
    }
    return _report(ops, failures + problems,
                   {name: (values[name], unit) for name, unit in END_TO_END})


def _traced(args, wl) -> int:
    """Set-up and ops under the layer wrappers; per-layer metrics out."""
    from pb_trace import LAYER_METRICS, Tracer, layer_metrics
    from repro import perfcache

    with Tracer() as tracer:
        start = time.perf_counter()
        _ctx, ops = _setup(wl, args)
        latencies, failures = run_ops(ops)
        traced_s = time.perf_counter() - start
    failures += [f"{args.workload} wrapper never fired: {path}"
                 for path in tracer.unfired(args.workload)]
    low, cache = perfcache.GLOBAL_LOWERING.stats(), perfcache.GLOBAL.stats()
    values = layer_metrics(
        tracer, traced_s, sum(latencies), _child(args, "untraced")["ops_s"],
        lowering=(low.hits, low.misses), perfcache=(cache.hits, cache.misses),
    )
    return _report(ops, failures, {name: (values[name], unit) for name, unit in LAYER_METRICS})


def _report(ops, failures, metrics) -> int:
    for message in failures:
        _warn(f"perfbench: FAILED {message}")
    names = {op.spec.name for op in ops}
    failed_ops = {m.split(" ", 1)[0] for m in failures} & names
    _emit({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
