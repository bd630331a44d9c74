"""Figure 4: systolic data flow of the Matrix Multiply Unit.

Runs a small weight-stationary array cycle by cycle, checks the wavefront
result against numpy, and renders the diagonal wavefront the paper draws.
"""

from __future__ import annotations

import numpy as np

from repro import _paper
from repro.analysis.common import ExperimentResult
from repro.core.systolic import SystolicArray


def run() -> ExperimentResult:
    rng = np.random.default_rng(4)
    rows, cols, batch = 8, 8, 6
    array = SystolicArray(rows, cols)
    weights = rng.integers(-128, 128, size=(rows, cols))
    x = rng.integers(-128, 128, size=(batch, rows))
    shift_cycles = array.load_weights(weights)
    trace = array.run_matmul(x)
    expected = x @ weights
    exact = bool(np.array_equal(trace.output, expected))
    frames = [array.render_wavefront(cycle, batch) for cycle in (2, 6, 10)]
    text = "\n\n".join(frames) + (
        f"\n\nweight shift-in: {shift_cycles} cycles; "
        f"matmul of ({batch}x{rows}) @ ({rows}x{cols}): {trace.cycles} cycles "
        f"(fill {trace.fill_cycles}, drain {trace.drain_cycles}); "
        f"output == numpy: {exact}"
    )
    return ExperimentResult(
        exp_id="figure4",
        text=text,
        measured={"exact": exact, "cycles": trace.cycles,
                  "shift_cycles": shift_cycles},
        paper=_paper.FIGURE4,
    )
