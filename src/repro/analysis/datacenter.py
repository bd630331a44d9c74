"""datacenter_provisioning: energy-aware capacity planning and TCO.

Closes the serving<->power loop (the question behind Figure 10 and
Section 8): a diurnally-loaded fleet of each platform serves the same
offered traffic under the paper's 7 ms p99 SLO; the smallest feasible
static fleet is chosen per platform, its busy/idle timeline is priced
through the calibrated energy-proportionality curves, and a CapEx+energy
model ranks the fleets in cost per million requests.  A second table
pits autoscaling policies (static / reactive / diurnal-predictive, with
replica spin-up latency) against each other on the platform that needs
the largest fleet.  ``repro.run(DatacenterScenario)`` executes
:func:`run_study` and renders the tables below; the experiment reads
that result.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro
from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workload
from repro.api.spec import DatacenterScenario
from repro.datacenter.autoscaler import (
    AutoscaleConfig,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    StaticPolicy,
)
from repro.datacenter.provisioning import (
    PlatformPlan,
    PolicyOutcome,
    compare_policies,
    plan_capacity,
)
from repro.datacenter.tco import CostModel, servers_for
from repro.platforms.base import SLA_SECONDS
from repro.power.proportionality import platform_curve
from repro.serving.sweep import FleetSpec
from repro.serving.traffic import make_traffic
from repro.util.tables import TextTable


@dataclass(frozen=True)
class StudyResult:
    """Everything the CLI prints and the report renders."""

    scenario: DatacenterScenario
    plans: dict[str, PlatformPlan]
    autoscaled_kind: str
    outcomes: list[PolicyOutcome]


#: The experiment's default spec (smaller than the CLI defaults so the
#: full report regenerates quickly).
DEFAULT_SCENARIO = DatacenterScenario(
    workload="mlp0",
    slo_ms=SLA_SECONDS["mlp0"] * 1e3,
    requests=8000,
    max_replicas=16,
)


def study_timings(scenario: DatacenterScenario) -> tuple[float, float, float]:
    """(period, control interval, spin-up) of the compressed day, in seconds.

    One day/night cycle spans the whole trace; the autoscaler ticks
    every "few minutes" of it (a hundredth) and a replica spins up in
    two ticks.
    """
    period = scenario.requests / scenario.rate
    return period, period / 100.0, period / 50.0


def _spec(scenario: DatacenterScenario, kind: str) -> FleetSpec:
    return FleetSpec(
        platform=platforms()[kind],
        model=workload(scenario.workload),
        replicas=1,
        policy="adaptive",
        slo_seconds=scenario.slo_seconds,
        router=scenario.router,
    )


def _static_outcome(plan: PlatformPlan) -> PolicyOutcome:
    """The static policy's showing at the planned fleet size.

    ``compare_policies`` would run the fleet ``plan_capacity`` has just
    run -- same spec, replica count and trace -- and pass its result
    through the same ``stats``, ``fleet_energy`` and ``fleet_cost``
    calls, so the plan already holds the outcome.
    """
    return PolicyOutcome(
        policy=StaticPolicy(plan.replicas).name,
        peak_replicas=plan.replicas,
        mean_powered=float(plan.replicas),
        stats=plan.stats,
        energy=plan.energy,
        cost=plan.cost,
    )


def run_study(scenario: DatacenterScenario) -> StudyResult:
    """Provision every platform, then race autoscalers on the biggest fleet."""
    cost_model = CostModel(
        usd_per_kwh=scenario.usd_per_kwh,
        pue=scenario.pue,
        capex_usd_per_tdp_watt=scenario.capex_per_watt,
    )
    arrivals = make_traffic("diurnal", swing=scenario.swing)(
        scenario.rate, scenario.requests, seed=scenario.seed
    )
    plans = {
        kind: plan_capacity(
            _spec(scenario, kind), arrivals,
            max_replicas=scenario.max_replicas, cost_model=cost_model,
        )
        for kind in scenario.platforms
    }
    # Autoscaling is most interesting where the fleet is biggest.
    autoscaled_kind = max(plans, key=lambda k: plans[k].replicas)
    spec = _spec(scenario, autoscaled_kind)
    period, interval, spinup = study_timings(scenario)
    scaler_config = AutoscaleConfig(
        control_interval_seconds=interval,
        spinup_seconds=spinup,
        min_replicas=1,
        max_replicas=scenario.max_replicas,
    )
    policies: list[ScalingPolicy] = [
        ReactivePolicy(cooldown_seconds=2 * interval),
        PredictivePolicy(
            scenario.rate, scenario.swing, period,
            lead_seconds=spinup + interval, target_utilization=0.7,
        ),
    ]
    outcomes = [_static_outcome(plans[autoscaled_kind])] + compare_policies(
        spec, arrivals, policies, scaler_config, cost_model=cost_model
    )
    return StudyResult(
        scenario=scenario, plans=plans,
        autoscaled_kind=autoscaled_kind, outcomes=outcomes,
    )


def fig10_die_ratio(kind: str, workload: str, utilization: float) -> float:
    """The die-level Figure 10 anchor: P(u)/P(1) at the achieved load.

    Shared by the rendered table and the structured rows so the two can
    never disagree on the clamping/rounding recipe.
    """
    return platform_curve(kind, workload).ratio_at(
        round(min(utilization, 1.0), 6)
    )


def provisioning_table(result: StudyResult) -> TextTable:
    scenario = result.scenario
    table = TextTable(
        ["Platform", "Replicas", "Servers", "p99", "SLO?", "Util",
         "Avg W", "Peak W", "W ratio", "Fig10 die", "mJ/req", "$/Mreq"],
        title=(
            f"Cheapest SLO-feasible fleet -- {scenario.workload}, diurnal "
            f"{scenario.rate:,.0f} req/s mean (swing {scenario.swing:+.0%}), "
            f"p99 <= {scenario.slo_seconds * 1e3:g} ms"
        ),
    )
    for kind, plan in result.plans.items():
        e, s = plan.energy, plan.stats
        die_ratio = fig10_die_ratio(kind, scenario.workload, e.utilization)
        table.add_row([
            kind.upper(),
            plan.replicas,
            servers_for(kind, plan.replicas),
            f"{s.p99_seconds * 1e3:.2f} ms",
            "yes" if plan.meets_slo else "NO",
            f"{e.utilization:.0%}",
            f"{e.avg_watts:,.0f}",
            f"{e.peak_watts:,.0f}",
            f"{e.power_ratio:.2f}",
            f"{die_ratio:.2f}",
            f"{e.energy_per_request_j * 1e3:.2f}",
            f"{plan.cost.usd_per_million_requests:.4f}",
        ])
    return table


def autoscaler_table(result: StudyResult) -> TextTable:
    _, interval, spinup = study_timings(result.scenario)
    table = TextTable(
        ["Policy", "Peak", "Mean on", "p99", "SLO miss", "Avg W",
         "mJ/req", "$/Mreq"],
        title=(
            f"Autoscaling the {result.autoscaled_kind.upper()} fleet -- "
            f"spin-up {spinup:.3g} s, control every {interval:.3g} s"
        ),
    )
    for o in result.outcomes:
        table.add_row([
            o.policy,
            o.peak_replicas,
            f"{o.mean_powered:.2f}",
            f"{o.stats.p99_seconds * 1e3:.2f} ms",
            f"{o.stats.slo_miss_fraction:.1%}",
            f"{o.energy.avg_watts:,.0f}",
            f"{o.energy.energy_per_request_j * 1e3:.2f}",
            f"{o.cost.usd_per_million_requests:.4f}",
        ])
    return table


def study_summary(result: StudyResult) -> str:
    tpu = result.plans.get("tpu")
    lines = []
    if tpu is not None:
        e = tpu.energy
        lines.append(
            f"TPU fleet: {e.utilization:.0%} utilized yet drawing "
            f"{e.power_ratio:.0%} of peak power -- "
            f"x{e.proportionality_penalty:.1f} what an energy-proportional "
            "design would burn (Figure 10's penalty, now priced)."
        )
    static = next((o for o in result.outcomes if o.policy.startswith("static")), None)
    best = min(
        (o for o in result.outcomes if not o.policy.startswith("static")),
        key=lambda o: o.energy.joules,
        default=None,
    )
    if static is not None and best is not None and static.energy.joules > 0:
        saved = 1.0 - best.energy.joules / static.energy.joules
        lines.append(
            f"Best autoscaler ({best.policy}) cuts fleet energy {saved:.0%} vs "
            f"static peak provisioning at {best.stats.slo_miss_fraction:.1%} "
            "SLO misses -- the idle-Watts/SLO-risk trade."
        )
    return "\n".join(lines)


def run(scenario: DatacenterScenario | None = None) -> ExperimentResult:
    scenario = scenario or DEFAULT_SCENARIO
    result = repro.run(scenario)
    measured: dict = {"slo_seconds": scenario.slo_seconds}
    for row in result.rows:
        if row["section"] == "provisioning":
            measured[row["platform"]] = {
                "replicas": row["replicas"],
                "p99_ms": row["p99_seconds"] * 1e3,
                "utilization": row["utilization"],
                "avg_watts": row["avg_watts"],
                "peak_watts": row["peak_watts"],
                "power_ratio": row["power_ratio"],
                "mj_per_request": row["energy_per_request_j"] * 1e3,
                "usd_per_mreq": row["usd_per_million_requests"],
            }
        else:
            measured[f"autoscale_{row['policy']}"] = {
                "mean_powered": row["mean_powered"],
                "avg_watts": row["avg_watts"],
                "slo_miss_fraction": row["slo_miss_fraction"],
            }
    return ExperimentResult(
        exp_id="datacenter_provisioning",
        text=result.render(),
        measured=measured,
        paper={
            # Section 6's published 10%-load power ratios (Figure 10).
            "ratio_at_10pct": {k: _paper.FIGURE10[(k, "cnn0")] for k in ("tpu", "gpu", "cpu")},
        },
    )
