"""``repro.run(scenario)``: one facade executing any declarative spec.

Dispatches on scenario kind and returns a :class:`ScenarioResult` whose
``render()`` is the CLI text for that subcommand and whose
``rows``/``metadata`` carry the same measurements structurally.  It is
the one execution path per kind: the CLI, the examples, ``SweepSpec``
and the parameterized experiments (``serving_sweep``,
``datacenter_provisioning``, ``llm_operating_curve``) all run their
specs here and only read the result, so a change to how a scenario
runs belongs in this module.  Heavy simulator imports happen inside the
per-kind runners so that importing :mod:`repro.api` (e.g. just to build
or validate a spec) stays cheap.
"""

from __future__ import annotations

from typing import Any

from repro.api.result import ScenarioResult
from repro.api.spec import (
    DatacenterScenario,
    GlobalScenario,
    LLMServeScenario,
    ProfileScenario,
    ScenarioSpec,
    ServeScenario,
    SpecError,
    SweepSpec,
)


def run(scenario: ScenarioSpec) -> ScenarioResult:
    """Execute any scenario (or sweep of scenarios) and return its result.

    ``repro.run(ServeScenario(...))`` and ``python -m repro serve
    --config spec.json --json`` produce identical structured results by
    construction: the CLI is a thin adapter over this function.
    """
    if isinstance(scenario, ProfileScenario):
        return _run_profile(scenario)
    if isinstance(scenario, ServeScenario):
        return _run_serve(scenario)
    if isinstance(scenario, DatacenterScenario):
        return _run_datacenter(scenario)
    if isinstance(scenario, GlobalScenario):
        return _run_globe(scenario)
    if isinstance(scenario, LLMServeScenario):
        return _run_llm(scenario)
    if isinstance(scenario, SweepSpec):
        return _run_sweep(scenario)
    raise SpecError(
        f"cannot run {type(scenario).__name__}: expected one of "
        "ProfileScenario, ServeScenario, DatacenterScenario, "
        "GlobalScenario, LLMServeScenario, SweepSpec"
    )


def _run_profile(scenario: ProfileScenario) -> ScenarioResult:
    from repro.analysis.common import platforms, workload

    model = workload(scenario.workload)
    driver = platforms()["tpu"].driver
    compiled = driver.compile(
        model,
        weight_bits=scenario.weight_bits,
        activation_bits=scenario.activation_bits,
    )
    result = driver.profile(compiled)
    b = result.breakdown
    ips = driver.ips(compiled, result)
    ub_mib = compiled.ub_peak_bytes / 2**20
    text = "\n".join([
        model.summary(),
        compiled.program.summary(),
        f"cycles            : {result.cycles:,.0f} ({result.seconds * 1e3:.2f} ms/batch)",
        f"array active      : {b.active_fraction:.1%} (useful {b.useful_mac_fraction:.1%})",
        f"weight stall/shift: {b.weight_stall_fraction:.1%} / {b.weight_shift_fraction:.1%}",
        f"non-matrix        : {b.non_matrix_fraction:.1%} "
        f"(RAW {b.raw_stall_fraction:.1%}, input {b.input_stall_fraction:.1%})",
        f"delivered         : {result.tera_ops:.1f} TOPS",
        f"throughput        : {ips:,.0f} IPS incl. host",
        f"Unified Buffer    : {ub_mib:.1f} MiB",
    ])
    row = {
        "workload": scenario.workload,
        "weight_bits": scenario.weight_bits,
        "activation_bits": scenario.activation_bits,
        "cycles": result.cycles,
        "ms_per_batch": result.seconds * 1e3,
        "tera_ops": result.tera_ops,
        "ips": ips,
        "ub_peak_mib": ub_mib,
        "active_fraction": b.active_fraction,
        "useful_mac_fraction": b.useful_mac_fraction,
        "weight_stall_fraction": b.weight_stall_fraction,
        "weight_shift_fraction": b.weight_shift_fraction,
        "non_matrix_fraction": b.non_matrix_fraction,
    }
    return ScenarioResult(
        kind=scenario.kind,
        title=f"profile {scenario.workload} "
              f"(W{scenario.weight_bits}/A{scenario.activation_bits})",
        rows=[row],
        metadata={"scenario": scenario.to_dict()},
        text=text,
    )


def _serve_fleet_spec(scenario: ServeScenario) -> tuple[Any, tuple[str, ...]]:
    """Resolve a :class:`FleetSpec` plus advisory notes."""
    from repro.analysis.common import platforms, workload
    from repro.serving.sweep import FleetSpec

    timeout = (
        scenario.timeout_ms * 1e-3 if scenario.timeout_ms is not None else None
    )
    spec = FleetSpec(
        platform=platforms()[scenario.platform],
        model=workload(scenario.workload),
        replicas=scenario.replicas,
        policy=scenario.policy,
        slo_seconds=scenario.slo_seconds,
        batch_size=scenario.batch,
        timeout_seconds=timeout,
        router=scenario.router,
    )
    notes = _ignored_field_notes(scenario)
    if scenario.batch is None and spec.batch_size is not None:
        notes += (f"(batch not given; using latency-bounded batch {spec.batch_size})",)
    return spec, notes


def _ignored_field_notes(scenario: ServeScenario | GlobalScenario) -> tuple[str, ...]:
    """One note per batching field the scenario sets but its policy does
    not read (``serving.batcher.POLICY_FIELDS``): the fleet runs as if it
    were unset."""
    from repro.serving.batcher import POLICY_FIELDS

    given = (
        ("batch", "batch_size", scenario.batch),
        ("timeout_ms", "timeout_seconds", scenario.timeout_ms),
    )
    return tuple(
        f"({name} {value:g} ignored: the {scenario.policy} policy does not read it)"
        for name, field, value in given
        if value is not None and field not in POLICY_FIELDS[scenario.policy]
    )


def _run_serve(scenario: ServeScenario) -> ScenarioResult:
    from repro.serving import load_trace, make_traffic
    from repro.serving.sweep import max_throughput_under_slo, serving_sweep, sweep_table

    spec, notes = _serve_fleet_spec(scenario)
    title = (
        f"serve {scenario.workload} on {scenario.platform} "
        f"x{scenario.replicas} ({scenario.policy} batching)"
    )
    metadata: dict[str, Any] = {
        "scenario": scenario.to_dict(),
        "resolved_batch": spec.batch_size,
        "max_batch": spec.max_batch(),
        "capacity_rps": spec.capacity_rps(),
    }

    if scenario.trace is not None:
        arrivals = load_trace(scenario.trace)
        result = spec.build().run(arrivals)
        stats = result.stats(slo_seconds=spec.slo_seconds)
        text = "\n".join([
            f"trace {scenario.trace}: {stats.completed} requests over "
            f"{arrivals[-1]:.3f} s on {spec.platform.name} x{spec.replicas}",
            f"  throughput {stats.throughput_rps:,.0f}/s  "
            f"p50 {stats.p50_seconds * 1e3:.2f} ms  "
            f"p99 {stats.p99_seconds * 1e3:.2f} ms  "
            f"util {stats.utilization:.0%}  "
            f"SLO misses {stats.slo_miss_fraction:.1%}",
        ])
        row = {
            "trace": scenario.trace,
            "completed": stats.completed,
            "horizon_seconds": float(arrivals[-1]),
            "throughput_rps": stats.throughput_rps,
            "p50_seconds": stats.p50_seconds,
            "p99_seconds": stats.p99_seconds,
            "mean_seconds": stats.mean_seconds,
            "utilization": stats.utilization,
            "slo_miss_fraction": stats.slo_miss_fraction,
            "mean_batch": stats.mean_batch,
        }
        metadata["mode"] = "trace"
        return ScenarioResult(
            kind=scenario.kind, title=title, rows=[row],
            metadata=metadata, text=text, notes=notes,
        )

    traffic = make_traffic(
        scenario.traffic,
        swing=scenario.diurnal_swing,
        period_seconds=scenario.diurnal_period_s,
    )
    points = serving_sweep(
        spec, scenario.loads, n_requests=scenario.requests, seed=scenario.seed,
        traffic=traffic,
    )
    sections = []
    if scenario.traffic == "diurnal":
        period = (
            f"{scenario.diurnal_period_s:g} s"
            if scenario.diurnal_period_s is not None
            else "one cycle per run"
        )
        sections.append(
            f"(traffic: diurnal, swing {scenario.diurnal_swing:+.0%}, "
            f"period {period})"
        )
    sections.append(sweep_table(spec, points).render())
    best = max_throughput_under_slo(points)
    if best is None:
        summary = (
            f"no swept load meets the {scenario.slo_ms:g} ms p99 SLO "
            "(overloaded or SLO below batch latency)"
        )
    else:
        summary = (
            f"max sustainable throughput under the {scenario.slo_ms:g} ms SLO: "
            f"{best.throughput_rps:,.0f}/s at {best.load_fraction:.0%} load "
            f"(p99 {best.p99_seconds * 1e3:.2f} ms)"
        )
    metadata["mode"] = "sweep"
    metadata["best"] = None if best is None else best.to_row()
    return ScenarioResult(
        kind=scenario.kind,
        title=title,
        rows=[p.to_row() for p in points],
        metadata=metadata,
        text="\n".join(sections),
        summary=summary,
        notes=notes,
    )


def _run_datacenter(scenario: DatacenterScenario) -> ScenarioResult:
    from repro.analysis.datacenter import (
        autoscaler_table,
        fig10_die_ratio,
        provisioning_table,
        run_study,
        study_summary,
        study_timings,
    )
    from repro.datacenter.tco import servers_for

    result = run_study(scenario)
    rows: list[dict[str, Any]] = []
    for kind, plan in result.plans.items():
        e, s = plan.energy, plan.stats
        die_ratio = fig10_die_ratio(kind, scenario.workload, e.utilization)
        rows.append({
            "section": "provisioning",
            "platform": kind,
            "replicas": plan.replicas,
            "servers": servers_for(kind, plan.replicas),
            "p99_seconds": s.p99_seconds,
            "meets_slo": plan.meets_slo,
            "utilization": e.utilization,
            "avg_watts": e.avg_watts,
            "peak_watts": e.peak_watts,
            "power_ratio": e.power_ratio,
            "fig10_die_ratio": die_ratio,
            "energy_per_request_j": e.energy_per_request_j,
            "usd_per_million_requests": plan.cost.usd_per_million_requests,
        })
    for o in result.outcomes:
        rows.append({
            "section": "autoscaling",
            "platform": result.autoscaled_kind,
            "policy": o.policy,
            "peak_replicas": o.peak_replicas,
            "mean_powered": o.mean_powered,
            "p99_seconds": o.stats.p99_seconds,
            "slo_miss_fraction": o.stats.slo_miss_fraction,
            "avg_watts": o.energy.avg_watts,
            "energy_per_request_j": o.energy.energy_per_request_j,
            "usd_per_million_requests": o.cost.usd_per_million_requests,
        })
    text = "\n\n".join([
        provisioning_table(result).render(),
        autoscaler_table(result).render(),
    ])
    return ScenarioResult(
        kind=scenario.kind,
        title=f"datacenter {scenario.workload} "
              f"({','.join(scenario.platforms)})",
        rows=rows,
        metadata={
            "scenario": scenario.to_dict(),
            "autoscaled_kind": result.autoscaled_kind,
            "period_seconds": study_timings(scenario)[0],
        },
        text=text,
        summary=study_summary(result),
    )


def _run_globe(scenario: GlobalScenario) -> ScenarioResult:
    from repro.globe import simulate_global
    from repro.util.tables import TextTable

    result = simulate_global(scenario)
    table = TextTable(
        ["cluster", "region", "mean req/s", "peak rho", "p50 ms", "p99 ms",
         "backends"],
        title=(
            f"{len(scenario.regions)} regions, "
            f"{len(result.cluster_rows)} clusters, "
            f"{result.total_requests:,.0f} requests over "
            f"{result.duration_s:g} s ({result.backend} backend, "
            f"{result.routing} routing)"
        ),
    )
    for row in result.cluster_rows:
        table.add_row([
            row["cluster"], row["region"], row["mean_rps"], row["peak_rho"],
            row["p50_seconds"] * 1e3, row["p99_seconds"] * 1e3,
            row["backends"],
        ])
    summary = (
        f"global p99 {result.p99_seconds * 1e3:.2f} ms "
        f"(p50 {result.p50_seconds * 1e3:.2f} ms) at "
        f"{result.throughput_rps:,.0f} req/s; "
        f"{result.spill_fraction:.1%} served out of region, "
        f"cost {result.cost_per_request:.2f}/req"
    )
    rows: list[dict[str, Any]] = [{
        "section": "global",
        "backend": result.backend,
        "routing": result.routing,
        "total_requests": result.total_requests,
        "throughput_rps": result.throughput_rps,
        "p50_seconds": result.p50_seconds,
        "p99_seconds": result.p99_seconds,
        "mean_seconds": result.mean_seconds,
        "spill_fraction": result.spill_fraction,
        "cost_per_request": result.cost_per_request,
        "backend_cells": dict(result.backend_cells),
    }]
    rows += [{"section": "cluster", **row} for row in result.cluster_rows]
    return ScenarioResult(
        kind=scenario.kind,
        title=(
            f"globe {scenario.workload} ({scenario.routing} routing, "
            f"{scenario.backend} backend)"
        ),
        rows=rows,
        metadata={
            "scenario": scenario.to_dict(),
            "backend_cells": dict(result.backend_cells),
        },
        text=table.render(),
        summary=summary,
        notes=_ignored_field_notes(scenario),
    )


def _run_llm(scenario: LLMServeScenario) -> ScenarioResult:
    from repro.serving.continuous import (
        build_llm_config,
        fleet_capacity_tokens_per_s,
        llm_row,
        run_llm_point,
    )
    from repro.util.tables import TextTable

    controllers = {}
    if scenario.autoscale:
        from repro.datacenter.llm_pools import pool_controllers

        controllers = pool_controllers(
            build_llm_config(scenario),
            scenario.prompt_tokens,
            scenario.decode_tokens,
        )
    cfg = build_llm_config(scenario, **controllers)
    capacity = fleet_capacity_tokens_per_s(
        cfg, scenario.prompt_tokens, scenario.decode_tokens
    )
    rows = []
    for load in scenario.loads:
        rate = load * capacity / scenario.decode_tokens
        result = run_llm_point(
            cfg,
            rate_rps=rate,
            requests=scenario.requests,
            prompt_mean=scenario.prompt_tokens,
            decode_mean=scenario.decode_tokens,
            seed=scenario.seed,
        )
        rows.append(llm_row(
            result,
            load=load,
            rate_rps=rate,
            slo_tpot_s=scenario.slo_tpot_seconds,
            slo_ttft_s=scenario.slo_ttft_seconds,
        ))
    pools = (
        f"{scenario.chips} decode + {scenario.prefill_chips} prefill chips"
        if scenario.mode == "disaggregated"
        else f"{scenario.chips} chips"
    )
    table = TextTable(
        ["load", "req/s", "tok/s/chip", "goodput/chip", "batch", "kv peak",
         "evict", "TTFT p99 ms", "TPOT p99 ms", "SLO"],
        title=(
            f"{scenario.workload} decode, {scenario.scheduler} batching, "
            f"{scenario.mode} ({pools}), "
            f"{scenario.requests} requests per point"
        ),
    )
    for row in rows:
        table.add_row([
            f"{row['load']:.2f}", f"{row['offered_rps']:,.0f}",
            f"{row['tokens_per_second_per_chip']:,.0f}",
            f"{row['goodput_tokens_per_second_per_chip']:,.0f}",
            f"{row['mean_batch']:.1f}", f"{row['kv_peak_fraction']:.0%}",
            f"{row['evictions']}", f"{row['p99_ttft_ms']:.2f}",
            f"{row['p99_tpot_ms']:.3f}", f"{row['slo_attainment']:.1%}",
        ])
    feasible = [
        row for row in rows
        if row["p99_tpot_ms"] <= scenario.slo_tpot_ms
        and row["p99_ttft_ms"] <= scenario.slo_ttft_ms
    ]
    if feasible:
        best = max(
            feasible, key=lambda r: r["goodput_tokens_per_second_per_chip"]
        )
        summary = (
            f"best {best['goodput_tokens_per_second_per_chip']:,.0f} "
            f"goodput tokens/s/chip at load {best['load']:.2f} within "
            f"p99 TPOT {scenario.slo_tpot_ms:g} ms / "
            f"TTFT {scenario.slo_ttft_ms:g} ms"
        )
    else:
        summary = (
            f"no load meets p99 TPOT {scenario.slo_tpot_ms:g} ms and "
            f"TTFT {scenario.slo_ttft_ms:g} ms; the fleet is undersized"
        )
    return ScenarioResult(
        kind=scenario.kind,
        title=(
            f"llm {scenario.workload} ({scenario.scheduler} batching, "
            f"{scenario.mode})"
        ),
        rows=rows,
        metadata={
            "scenario": scenario.to_dict(),
            "kv_capacity_tokens": cfg.kv_capacity,
            "kv_bytes_per_token": cfg.kv_bytes_per_token,
            "weight_stream_us": cfg.timing.weight_stream_seconds * 1e6,
            "capacity_tokens_per_s": capacity,
        },
        text=table.render(),
        summary=summary,
    )


def _run_sweep(scenario: SweepSpec) -> ScenarioResult:
    expanded = scenario.expand()
    axis_names = [name for name, _ in scenario.axes]
    rows: list[dict[str, Any]] = []
    sections: list[str] = []
    notes: list[str] = []
    for overrides, sub in expanded:
        sub_result = run(sub)
        label = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        sections.append(f"### {label}\n\n{sub_result.render()}")
        notes.extend(sub_result.notes)
        for row in sub_result.rows:
            rows.append({"sweep": dict(overrides), **row})
    return ScenarioResult(
        kind=scenario.kind,
        title=f"sweep over {', '.join(axis_names)} "
              f"({len(expanded)} x {scenario.base.kind})",
        rows=rows,
        metadata={"scenario": scenario.to_dict(), "points": len(expanded)},
        text="\n\n".join(sections),
        notes=tuple(dict.fromkeys(notes)),
    )
