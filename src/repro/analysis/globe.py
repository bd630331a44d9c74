"""global_serving: planet-scale routing policies and backend validation.

Extends the datacenter serving story to a world of regions: three
diurnal demand sources a third of a cycle apart, one TPU cluster each,
routed by each global policy in turn and priced by the hybrid
queueing/event backend (tens of millions of requests in well under a
second of wall time).  A second section validates the hybrid against
the pure event simulator on a small trace -- the same check
``tests/test_globe.py`` pins to 5%.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.api.spec import ClusterSpec, GlobalScenario, RegionSpec
from repro.globe import ROUTING_POLICIES, simulate_global
from repro.util.tables import TextTable

#: The spec fields ``run`` reads; ``routing`` and ``backend`` are swept
#: internally (every policy, then hybrid vs exact), so overriding them
#: is rejected rather than ignored.
HONORED_FIELDS = (
    "workload", "slo_ms", "policy", "batch", "timeout_ms", "router",
    "regions", "period_s", "duration_s", "bins", "knee",
    "spill_threshold", "default_rtt_ms", "rtt_ms", "event_requests",
    "seed",
)

#: The default world: follow-the-sun demand over three TPU clusters.
DEFAULT_SCENARIO = GlobalScenario()

#: Small enough for the exact backend, loaded enough to cross the knee.
_VALIDATION_SCENARIO = GlobalScenario(
    workload="mlp0",
    policy="timeout",
    batch=16,
    timeout_ms=2.0,
    regions=tuple(
        RegionSpec(name=name, rate_rps=9000.0, swing=0.6, phase=phase,
                   clusters=(ClusterSpec(name=f"{name}-tpu"),))
        for name, phase in (
            ("americas", 0.0), ("europe", 1.0 / 3.0), ("asia", 2.0 / 3.0),
        )
    ),
    period_s=30.0,
    duration_s=30.0,
    bins=12,
)


def run(scenario: GlobalScenario | None = None) -> ExperimentResult:
    scenario = scenario or DEFAULT_SCENARIO
    sections: list[str] = []
    measured: dict = {"slo_seconds": scenario.slo_seconds}

    policies = TextTable(
        ["routing", "p99 ms", "p50 ms", "throughput req/s", "spilled",
         "cost/req", "backend cells"],
        title=(
            f"Global routing policies -- {len(scenario.regions)} regions, "
            f"{scenario.workload.upper()}, hybrid backend"
        ),
    )
    world_requests = 0.0
    for policy in sorted(ROUTING_POLICIES):
        result = simulate_global(scenario.replace(routing=policy))
        world_requests = result.total_requests
        cells = " ".join(
            f"{kind}:{count}" for kind, count in result.backend_cells.items()
        )
        policies.add_row([
            policy,
            result.p99_seconds * 1e3,
            result.p50_seconds * 1e3,
            f"{result.throughput_rps:,.0f}",
            f"{result.spill_fraction:.1%}",
            result.cost_per_request,
            cells,
        ])
        measured[f"{policy}_p99_ms"] = result.p99_seconds * 1e3
        measured[f"{policy}_throughput_rps"] = result.throughput_rps
        measured[f"{policy}_spill_fraction"] = result.spill_fraction
        measured[f"{policy}_cost_per_request"] = result.cost_per_request
    sections.append(policies.render())

    hybrid = simulate_global(_VALIDATION_SCENARIO)
    exact = simulate_global(_VALIDATION_SCENARIO.replace(backend="exact"))
    p99_err = abs(hybrid.p99_seconds - exact.p99_seconds) / exact.p99_seconds
    thr_err = abs(
        hybrid.throughput_rps - exact.throughput_rps
    ) / exact.throughput_rps
    check = TextTable(
        ["backend", "p99 ms", "throughput req/s", "requests"],
        title=(
            "Hybrid-vs-exact validation -- "
            f"{exact.total_requests:,.0f}-request trace, timeout batching"
        ),
    )
    check.add_row(["exact", exact.p99_seconds * 1e3,
                   f"{exact.throughput_rps:,.0f}",
                   f"{exact.total_requests:,.0f}"])
    check.add_row(["hybrid", hybrid.p99_seconds * 1e3,
                   f"{hybrid.throughput_rps:,.0f}",
                   f"{hybrid.total_requests:,.0f}"])
    sections.append(check.render())
    sections.append(
        f"hybrid error vs exact: p99 {p99_err:.1%}, throughput {thr_err:.1%} "
        "(tests pin both under 5%); the hybrid prices the full "
        f"{world_requests / 1e6:.0f}M-request world without materializing "
        "a single arrival outside the knee band."
    )
    measured["validation_p99_err"] = p99_err
    measured["validation_throughput_err"] = thr_err
    return ExperimentResult(
        exp_id="global_serving",
        text="\n\n".join(sections),
        measured=measured,
        paper={
            "note": "extension: the paper's single-datacenter SLO serving "
                    "story scaled to a multi-region fleet",
        },
    )
