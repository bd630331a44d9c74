"""Table 1: the six NN applications and their characteristics."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, workloads
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    table = TextTable(
        ["Name", "FC", "Conv", "Vector", "Pool", "Total", "Nonlinear",
         "Weights(M)", "Ops/Byte", "Batch", "Share",
         "paper: W(M)", "paper: O/B"],
        title="Table 1 -- six NN applications (measured vs paper)",
    )
    measured = {}
    for name, model in workloads().items():
        census = model.layer_census()
        pub = _paper.TABLE1[name]
        weights_m = model.total_weights / 1e6
        intensity = model.ops_per_weight_byte()
        measured[name] = {
            "census": census,
            "weights_m": weights_m,
            "ops_per_byte": intensity,
            "batch": model.batch_size,
        }
        table.add_row([
            name.upper(),
            census["fc"], census["conv"], census["vector"], census["pool"],
            census["total"],
            ", ".join(model.nonlinearities()),
            weights_m,
            intensity,
            model.batch_size,
            f"{pub['share']:.0%}",
            pub["weights_m"],
            pub["ops_per_byte"],
        ])
    return ExperimentResult(
        exp_id="table1",
        text=table.render(),
        measured=measured,
        paper=_paper.TABLE1,
    )
