"""Energy-aware capacity planning for the serving fleet.

The layer above :mod:`repro.serving` that closes the serving<->power
loop the paper opens: Figure 10 shows none of the three chips is
energy-proportional (the TPU draws 88% of full power at 10% load) and
Section 8 stresses that inference fleets run far below peak -- so the
question a datacenter actually asks is not "how fast at 100% load" but
"what does an SLO-bound, diurnally-loaded fleet burn, and how many
replicas should it run".

* :mod:`repro.datacenter.energy`       -- integrate each replica's busy
  /idle timeline (recorded by the event engine) through the platform's
  power curve: joules, average vs peak Watts, energy per request,
  perf/Watt at the *achieved* load;
* :mod:`repro.datacenter.autoscaler`   -- static / reactive / predictive
  replica scaling with spin-up latency, driven inside the event
  simulation;
* :mod:`repro.datacenter.provisioning` -- the smallest SLO-feasible
  static fleet per platform, and policy-vs-policy comparisons on a
  shared trace;
* :mod:`repro.datacenter.tco`          -- CapEx (TDP-provisioned
  dollars) + energy OpEx, per million requests;
* :mod:`repro.datacenter.llm_pools`    -- per-pool (prefill/decode)
  autoscaling controllers for disaggregated LLM serving.

Try it: ``python -m repro datacenter --workload mlp0 --slo-ms 7``.
"""

from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    AutoscaledFleet,
    AutoscaleResult,
    FleetObservation,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    StaticPolicy,
)
from repro.datacenter.energy import (
    FleetEnergy,
    ReplicaEnergy,
    ReplicaPower,
    fleet_energy,
    replica_energy,
    utilization_timeline,
)
from repro.datacenter.provisioning import (
    PlatformPlan,
    PolicyOutcome,
    compare_policies,
    plan_capacity,
)
from repro.datacenter.llm_pools import PoolAutoscaler, pool_controllers
from repro.datacenter.tco import CostBreakdown, CostModel, fleet_cost, servers_for

__all__ = [
    "AutoscaleConfig",
    "AutoscaleResult",
    "AutoscaledFleet",
    "CostBreakdown",
    "CostModel",
    "FleetEnergy",
    "FleetObservation",
    "PlatformPlan",
    "PolicyOutcome",
    "PoolAutoscaler",
    "PredictivePolicy",
    "ReactivePolicy",
    "ReplicaEnergy",
    "ReplicaPower",
    "ScalingPolicy",
    "StaticPolicy",
    "compare_policies",
    "fleet_cost",
    "fleet_energy",
    "plan_capacity",
    "pool_controllers",
    "replica_energy",
    "servers_for",
    "utilization_timeline",
]
