"""Non-table/figure experiments: TPU', Boost mode, server scaling."""

from __future__ import annotations

from repro import _paper
from repro.analysis.common import ExperimentResult, platforms, workloads
from repro.perfmodel.tpu_prime import tpu_prime_study
from repro.platforms.gpu import BOOST_PERF_FACTOR, BOOST_POWER_FACTOR, K80Platform
from repro.power.perfwatt import server_scale_study
from repro.util.tables import TextTable


def run_tpu_prime() -> ExperimentResult:
    study = tpu_prime_study(workloads())
    table = TextTable(
        ["Variant", "GM", "WM", "GM (with host)", "WM (with host)"],
        title="Section 7 -- TPU' uplifts over the baseline TPU",
    )
    for variant in ("clock", "memory", "both"):
        table.add_row([
            variant,
            study.geometric_means[variant],
            study.weighted_means[variant],
            study.host_adjusted_gm[variant],
            study.host_adjusted_wm[variant],
        ])
    notes = (
        "\npaper: memory GM 2.6 / WM 3.9; with host 1.9 / 3.2; "
        "clock alone ~1.0; 'TPU' just has faster memory'."
    )
    measured = {
        "memory_gm": study.geometric_means["memory"],
        "memory_wm": study.weighted_means["memory"],
        "memory_gm_host": study.host_adjusted_gm["memory"],
        "memory_wm_host": study.host_adjusted_wm["memory"],
        "clock_gm": study.geometric_means["clock"],
        "both_gm": study.geometric_means["both"],
    }
    return ExperimentResult(
        exp_id="tpu_prime",
        text=table.render() + notes,
        measured=measured,
        paper=_paper.TPU_PRIME,
    )


def run_boost_mode() -> ExperimentResult:
    """Section 8's fallacy: K80 Boost mode on LSTM1."""
    model = workloads()["lstm1"]
    base = K80Platform(boost_mode=False)
    boost = K80Platform(boost_mode=True)
    batch = base.latency_bounded_batch(model)
    perf = boost.throughput_ips(model, batch) / base.throughput_ips(model, batch)
    power = boost.chip.busy_w / base.chip.busy_w
    perf_per_watt = perf / power
    text = (
        f"K80 Boost mode on LSTM1 (batch {batch}):\n"
        f"  clock 560 -> 875 MHz (x{_paper.BOOST_MODE['clock_ratio']:.2f})\n"
        f"  performance x{perf:.2f} (paper x{_paper.BOOST_MODE['perf']})\n"
        f"  power x{power:.2f} (paper x{_paper.BOOST_MODE['power']})\n"
        f"  performance/Watt x{perf_per_watt:.2f} "
        f"(paper x{_paper.BOOST_MODE['perf_per_watt']}) -- a minor gain that\n"
        f"  does not change the energy-speed analysis (and Boost hurts TCO)."
    )
    measured = {"perf": perf, "power": power, "perf_per_watt": perf_per_watt,
                "boost_perf_factor": BOOST_PERF_FACTOR,
                "boost_power_factor": BOOST_POWER_FACTOR}
    return ExperimentResult(
        exp_id="boost_mode",
        text=text,
        measured=measured,
        paper=_paper.BOOST_MODE,
    )


def run_server_scale() -> ExperimentResult:
    """Section 6: a Haswell server plus 4 TPUs on CNN0."""
    study = server_scale_study(workloads(), platforms())
    text = (
        f"Haswell server + 4 TPUs vs Haswell server alone, CNN0:\n"
        f"  speedup x{study.cnn0_speedup:.0f} (paper ~80x)\n"
        f"  extra power {study.extra_power_fraction:.0%} (paper <20%)"
    )
    return ExperimentResult(
        exp_id="server_scale",
        text=text,
        measured={"speedup": study.cnn0_speedup,
                  "extra_power": study.extra_power_fraction},
        paper=_paper.SERVER_SCALE,
    )
