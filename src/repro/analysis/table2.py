"""Table 2: the benchmarked chips and servers."""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.platforms.specs import CHIPS, SERVERS
from repro.util.tables import TextTable


def run() -> ExperimentResult:
    chips = TextTable(
        ["Model", "mm^2", "nm", "MHz", "TDP(W)", "Idle(W)", "Busy(W)",
         "TOPS 8b", "TFLOPS", "GB/s", "On-chip MiB", "Ridge (MACs/B)"],
        title="Table 2 -- benchmarked chips",
    )
    for kind, chip in CHIPS.items():
        chips.add_row([
            chip.name,
            chip.die_mm2 if chip.die_mm2 else "<=331*",
            chip.process_nm,
            chip.clock_mhz,
            chip.tdp_w,
            chip.idle_w,
            chip.busy_w,
            chip.peak_tops_8b if chip.peak_tops_8b else "--",
            chip.peak_tflops if chip.peak_tflops else "--",
            chip.bandwidth_gbs,
            chip.onchip_mib,
            chip.ridge_ops_per_byte,
        ])
    servers = TextTable(
        ["Server", "Dies", "DRAM", "TDP(W)", "Idle(W)", "Busy(W)"],
        title="Benchmarked servers",
    )
    for kind, server in SERVERS.items():
        servers.add_row([
            server.name, server.dies, server.dram_desc,
            server.tdp_w, server.idle_w, server.busy_w,
        ])
    text = chips.render() + "\n\n" + servers.render() + (
        "\n(*) The TPU die size is undisclosed; <= half the Haswell die."
    )
    measured = {
        kind: {"ridge": chip.ridge_ops_per_byte, "peak_ops": chip.peak_ops}
        for kind, chip in CHIPS.items()
    }
    return ExperimentResult(
        exp_id="table2",
        text=text,
        measured=measured,
    )
