"""Steadiness check: run one workload N times, print each metric's spread.

    python3 perfbench/steady.py --workload fleet_stream --runs 5

Each run is a fresh process with its own seed (1..N unless ``--seeds``
is given), exactly as ``run.py`` is invoked by a benchmark driver.  For
every metric it prints the median, the quartiles, the quartile spread
as a share of the median, and the max/min ratio; these figures set the
bounds in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def measure(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect output\n{done.stderr}")
    return result["metrics"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / median if median else 0.0,
        "max_over_min": max(values) / min(values) if min(values) else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", type=int, nargs="*")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    seeds = args.seeds or list(range(1, args.runs + 1))
    runs = [measure(args.workload, seed, args.seconds) for seed in seeds]
    sys.stdout.write(f"{args.workload}: {len(seeds)} runs, seeds {seeds}\n")
    sys.stdout.write(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                     f"{'iqr/med':>8s} {'max/min':>8s}\n")
    for name in runs[0]:
        s = spread([run[name]["value"] for run in runs])
        sys.stdout.write(f"{name:32s} {s['median']:12.6g} {s['q1']:12.6g} "
                         f"{s['q3']:12.6g} {s['iqr_frac']:8.4f} "
                         f"{s['max_over_min']:8.4f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
