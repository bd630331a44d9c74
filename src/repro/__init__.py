"""tpu-isca17: a reproduction of "In-Datacenter Performance Analysis of a
Tensor Processing Unit" (Jouppi et al., ISCA 2017).

Quick start::

    from repro import TPUDriver, build_workload

    driver = TPUDriver()
    compiled = driver.compile(build_workload("mlp0"))
    result = driver.profile(compiled)
    print(result.tera_ops, "TOPS")

Or declaratively, through the scenario API -- a spec in, a structured
result out (the CLI's ``--config``/``--json`` speak the same types)::

    import repro

    result = repro.run(repro.ServeScenario(workload="mlp0", replicas=4))
    print(result.render())

The package layout mirrors the paper: :mod:`repro.core` is the TPU
microarchitecture, :mod:`repro.compiler` the user-space driver,
:mod:`repro.nn` the six-application workload, :mod:`repro.platforms` the
Haswell/K80 comparison points, :mod:`repro.perfmodel` the Section 7
design-space model, :mod:`repro.serving` the event-driven datacenter
serving simulator (fleets of replicas under a p99 SLO, Table 4 at
scale), :mod:`repro.globe` the planet-scale multi-region layer (global
routing over a hybrid queueing/event backend), :mod:`repro.api` the
declarative scenario layer (serializable specs + the ``repro.run``
facade), and :mod:`repro.analysis` regenerates every table and figure
of the evaluation.
"""

from repro.api import (
    ClusterSpec,
    DatacenterScenario,
    Experiment,
    GlobalScenario,
    LLMServeScenario,
    ProfileScenario,
    RegionSpec,
    ScenarioResult,
    ScenarioSpec,
    ServeScenario,
    SpecError,
    SweepSpec,
    load_scenario,
    run,
)
from repro.compiler import LivenessAllocator, StaticPartitionAllocator, TPUDriver
from repro.core import TPUConfig, TPUDevice, TPU_V1
from repro.nn import build_workload, paper_workloads

__version__ = "1.1.0"

__all__ = [
    "ClusterSpec",
    "DatacenterScenario",
    "Experiment",
    "GlobalScenario",
    "LLMServeScenario",
    "LivenessAllocator",
    "ProfileScenario",
    "RegionSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ServeScenario",
    "SpecError",
    "StaticPartitionAllocator",
    "SweepSpec",
    "TPUConfig",
    "TPUDevice",
    "TPUDriver",
    "TPU_V1",
    "build_workload",
    "load_scenario",
    "paper_workloads",
    "run",
    "__version__",
]
