"""Power, energy proportionality, and performance/Watt (Sections 5-6)."""

from repro.power.floorplan import FLOORPLAN_BLOCKS, FloorplanBlock, category_shares, die_table
from repro.power.perfwatt import PerfWattBar, figure9_bars, server_scale_study
from repro.power.proportionality import (
    PLATFORM_CURVES,
    PowerCurve,
    ReplicaPower,
    calibrate_alpha,
    figure10_series,
    host_share_watts,
)

__all__ = [
    "FLOORPLAN_BLOCKS",
    "FloorplanBlock",
    "PLATFORM_CURVES",
    "PerfWattBar",
    "PowerCurve",
    "ReplicaPower",
    "calibrate_alpha",
    "category_shares",
    "die_table",
    "figure9_bars",
    "figure10_series",
    "host_share_watts",
    "server_scale_study",
]
