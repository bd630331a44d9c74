#!/usr/bin/env python3
"""Fleet economics and fleet serving: what a datacenter actually runs.

The paper's Section 5-6 argument in one script: compare whole servers on
performance per provisioned Watt (the TCO proxy), then look at what each
platform burns at partial load -- where real datacenters live.  Next, a
replicated TPU fleet runs on the event-driven serving simulator
(:mod:`repro.serving`): SLO-adaptive batching behind a
join-shortest-queue router, swept from light load to near-capacity.
The closing section hands the same machinery to
:mod:`repro.datacenter`: provision the cheapest SLO-feasible fleet per
platform under diurnal traffic, integrate its busy/idle timeline
through the Figure 10 power curves, and race autoscaling policies.
"""

import repro
from repro.analysis.common import platforms, workloads
from repro.power.perfwatt import figure9_bars, server_scale_study
from repro.power.proportionality import figure10_series
from repro.serving import FleetSpec, max_throughput_under_slo, serving_sweep, sweep_table
from repro.util.tables import TextTable


def serving_section(models, plats) -> None:
    print("\nServing MLP0 under the 7 ms p99 limit, TPU fleet behind JSQ:")
    for replicas in (1, 4):
        spec = FleetSpec(
            platform=plats["tpu"], model=models["mlp0"], replicas=replicas,
            policy="adaptive", slo_seconds=7e-3, router="jsq",
        )
        points = serving_sweep(spec, (0.3, 0.6, 0.9), n_requests=6000)
        print(sweep_table(spec, points).render())
        best = max_throughput_under_slo(points)
        if best is not None:
            print(f"  -> sustains {best.throughput_rps:,.0f} req/s inside the SLO\n")


def main() -> None:
    models = workloads()
    plats = platforms()

    table = TextTable(
        ["Comparison", "Total perf/W", "Incremental perf/W"],
        title="Relative performance/Watt (GM), whole servers at TDP",
    )
    bars = {(b.comparison, b.basis): b for b in figure9_bars(models, plats)}
    for comparison in ("GPU/CPU", "TPU/CPU", "TPU/GPU", "TPU'/CPU", "TPU'/GPU"):
        table.add_row([
            comparison,
            f"x{bars[(comparison, 'total')].gm:.1f}",
            f"x{bars[(comparison, 'incremental')].gm:.1f}",
        ])
    print(table.render())

    print("\nEnergy proportionality (CNN0), Watts per die by load:")
    series = figure10_series("cnn0")
    header = "  load:      " + "  ".join(f"{u:>4.0%}" for u in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    print(header)
    for name, points in series.items():
        lookup = dict(points)
        row = "  ".join(f"{lookup[u]:4.0f}" for u in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        print(f"  {name:24} {row}")
    print(
        "\nAt 10% load the TPU still burns 88% of its full power (the short\n"
        "schedule left out energy-saving features); Haswell manages 56%."
    )

    study = server_scale_study(models, plats)
    print(
        f"\nAdding 4 TPUs to a Haswell server: CNN0 runs x{study.cnn0_speedup:.0f} "
        f"faster for {study.extra_power_fraction:.0%} more power."
    )

    serving_section(models, plats)
    planning_section()


def planning_section() -> None:
    """Close the loop: provision, autoscale, and price the same fleet."""
    print("\nEnergy-aware capacity planning (repro.datacenter):")
    print(repro.run(repro.DatacenterScenario(requests=6000, max_replicas=12)).render())


if __name__ == "__main__":
    main()
