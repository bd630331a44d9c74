"""The experiment harness: regenerate every table and figure.

Each ``table*``/``figure*`` module exposes ``run() -> ExperimentResult``;
the registry maps experiment ids to :class:`repro.api.Experiment`
entries -- still zero-argument callables (``EXPERIMENTS[id]()``), but
carrying the experiment's one title, which each entry stamps on its
result, and, where the experiment is a parameter study, the default
:class:`ScenarioSpec` it runs with (introspectable via
``repro list --json`` / ``repro experiment <id> --spec``).
:mod:`repro.analysis.report` renders the whole evaluation with
per-experiment error isolation (EXPERIMENTS.md is generated from it).
"""

from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.api.experiment import Experiment

from repro.analysis import (  # noqa: E402  (registry population)
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    extras,
    serving,
    datacenter,
    globe,
    llm,
    transformer,
)

#: Experiment id -> callable Experiment returning ExperimentResult.
EXPERIMENTS: dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in (
        Experiment("table1", "Six NN applications (95% of datacenter inference demand)",
                   table1.run),
        Experiment("table2", "Benchmarked servers (published inputs)", table2.run),
        Experiment("table3", "Factors limiting TPU performance", table3.run),
        Experiment("table4", "Latency-bounded throughput (MLP0)", table4.run),
        Experiment("table5", "Host interaction overhead", table5.run),
        Experiment("table6", "Relative inference performance per die", table6.run),
        Experiment("table7", "Performance-model validation", table7.run),
        Experiment("table8", "Unified Buffer footprint per app", table8.run),
        Experiment("figure2", "TPU die floorplan (datapath ~2/3 of the die, control 2%)",
                   figure2.run),
        Experiment("figure4", "Systolic wavefront through the matrix unit", figure4.run),
        Experiment("figure5", "Figure 5 -- TPU die roofline", figure5.run),
        Experiment("figure6", "Figure 6 -- Haswell die roofline", figure6.run),
        Experiment("figure7", "Figure 7 -- K80 die roofline", figure7.run),
        Experiment("figure8", "Combined rooflines (all TPU stars above the other ceilings)",
                   figure8.run),
        Experiment("figure9", "Performance/Watt (the performance/TCO proxy)", figure9.run),
        Experiment("figure10", "Energy proportionality", figure10.run),
        Experiment("figure11", "Design-space sensitivity (memory bandwidth wins)", figure11.run),
        Experiment("tpu_prime", "The GDDR5 hypothetical (TPU')", extras.run_tpu_prime),
        Experiment("boost_mode", "Fallacy: K80 Boost mode would change the results",
                   extras.run_boost_mode),
        Experiment("server_scale", "Accelerator economics at the server level",
                   extras.run_server_scale),
        Experiment(
            "serving_sweep",
            "Datacenter serving: p99 vs throughput at fleet scale",
            serving.run,
            scenario=serving.DEFAULT_SCENARIO,
            honors=serving.HONORED_FIELDS,
        ),
        Experiment(
            "datacenter_provisioning",
            "Energy-aware capacity planning, autoscaling, and TCO",
            datacenter.run,
            scenario=datacenter.DEFAULT_SCENARIO,
        ),
        Experiment(
            "global_serving",
            "Planet-scale serving: global routing on the hybrid backend",
            globe.run,
            scenario=globe.DEFAULT_SCENARIO,
            honors=globe.HONORED_FIELDS,
        ),
        Experiment(
            "llm_operating_curve",
            "LLM decode serving: continuous batching under a KV budget",
            llm.run,
            scenario=llm.DEFAULT_SCENARIO,
            honors=llm.HONORED_FIELDS,
        ),
        Experiment(
            "transformer_roofline",
            "Transformer workloads on the TPU roofline (extension)",
            transformer.run,
        ),
    )
}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "platforms",
    "workloads",
]
