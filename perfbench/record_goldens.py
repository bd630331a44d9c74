"""Record the output goldens the benchmark checks its ops against.

    python3 perfbench/record_goldens.py

Runs every workload's op list at the default seed and writes each op's
summary (cycles and cycle breakdown for programs, response statistics
for fleets, token and iteration counts for decode) to goldens.json.
Re-record only when a change is meant to alter simulated results.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pb_workloads as wl  # noqa: E402


def main() -> int:
    goldens = {}
    for workload in wl.WORKLOADS:
        ctx = wl.setup(workload)
        ctx.goldens = {}
        for spec in wl.plan(workload, wl.DEFAULT_SEED):
            op = wl.bind(ctx, spec)
            result = op.prepare()()
            problems = op.check(result)
            if problems:
                sys.stderr.write(f"{spec.name}: {problems}\n")
                return 1
            goldens[wl.golden_key(spec)] = op.summary(result)
    wl.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(goldens)} goldens to {wl.GOLDENS_PATH.name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
