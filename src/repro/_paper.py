"""Published numbers from Jouppi et al. (ISCA 2017), for comparison only.

Nothing in this module feeds any model or simulator input; the analysis
harness uses it exclusively to print paper-vs-measured columns and the
test suite to assert reproduction bands.  Keeping it in one place makes
that separation auditable.
"""

APPS = ("mlp0", "mlp1", "lstm0", "lstm1", "cnn0", "cnn1")

#: Table 1: the six applications.
TABLE1 = {
    "mlp0": {"loc": 100, "fc": 5, "conv": 0, "vector": 0, "pool": 0, "total": 5,
             "nonlinear": "ReLU", "weights_m": 20, "ops_per_byte": 200, "batch": 200,
             "share": 0.61},
    "mlp1": {"loc": 1000, "fc": 4, "conv": 0, "vector": 0, "pool": 0, "total": 4,
             "nonlinear": "ReLU", "weights_m": 5, "ops_per_byte": 168, "batch": 168,
             "share": 0.61},
    "lstm0": {"loc": 1000, "fc": 24, "conv": 0, "vector": 34, "pool": 0, "total": 58,
              "nonlinear": "sigmoid, tanh", "weights_m": 52, "ops_per_byte": 64,
              "batch": 64, "share": 0.29},
    "lstm1": {"loc": 1500, "fc": 37, "conv": 0, "vector": 19, "pool": 0, "total": 56,
              "nonlinear": "sigmoid, tanh", "weights_m": 34, "ops_per_byte": 96,
              "batch": 96, "share": 0.29},
    "cnn0": {"loc": 1000, "fc": 0, "conv": 16, "vector": 0, "pool": 0, "total": 16,
             "nonlinear": "ReLU", "weights_m": 8, "ops_per_byte": 2888, "batch": 8,
             "share": 0.05},
    "cnn1": {"loc": 1000, "fc": 4, "conv": 72, "vector": 0, "pool": 13, "total": 89,
             "nonlinear": "ReLU", "weights_m": 100, "ops_per_byte": 1750, "batch": 32,
             "share": 0.05},
}

#: Table 3: TPU performance-counter breakdown (% of cycles; TOPS).
TABLE3 = {
    "mlp0": {"active": 0.127, "useful": 0.125, "unused": 0.003, "weight_stall": 0.539,
             "weight_shift": 0.159, "non_matrix": 0.175, "raw_stall": 0.033,
             "input_stall": 0.061, "tops": 12.3},
    "mlp1": {"active": 0.106, "useful": 0.094, "unused": 0.012, "weight_stall": 0.442,
             "weight_shift": 0.134, "non_matrix": 0.319, "raw_stall": 0.084,
             "input_stall": 0.088, "tops": 9.7},
    "lstm0": {"active": 0.082, "useful": 0.082, "unused": 0.0, "weight_stall": 0.581,
              "weight_shift": 0.158, "non_matrix": 0.179, "raw_stall": 0.146,
              "input_stall": 0.051, "tops": 3.7},
    "lstm1": {"active": 0.105, "useful": 0.063, "unused": 0.042, "weight_stall": 0.621,
              "weight_shift": 0.171, "non_matrix": 0.103, "raw_stall": 0.106,
              "input_stall": 0.024, "tops": 2.8},
    "cnn0": {"active": 0.782, "useful": 0.782, "unused": 0.0, "weight_stall": 0.0,
             "weight_shift": 0.0, "non_matrix": 0.218, "raw_stall": 0.035,
             "input_stall": 0.034, "tops": 86.0},
    "cnn1": {"active": 0.462, "useful": 0.225, "unused": 0.237, "weight_stall": 0.281,
             "weight_shift": 0.070, "non_matrix": 0.187, "raw_stall": 0.228,
             "input_stall": 0.006, "tops": 14.1},
}

#: Table 4: MLP0 p99 and throughput vs batch size (7 ms limit).
TABLE4 = {
    ("cpu", 16): {"p99_ms": 7.2, "ips": 5482, "pct_max": 0.42},
    ("cpu", 64): {"p99_ms": 21.3, "ips": 13194, "pct_max": 1.00},
    ("gpu", 16): {"p99_ms": 6.7, "ips": 13461, "pct_max": 0.37},
    ("gpu", 64): {"p99_ms": 8.3, "ips": 36465, "pct_max": 1.00},
    ("tpu", 200): {"p99_ms": 7.0, "ips": 225000, "pct_max": 0.80},
    ("tpu", 250): {"p99_ms": 10.0, "ips": 280000, "pct_max": 1.00},
}

#: Table 5: host interaction time as % of TPU execution time.
TABLE5 = {"mlp0": 0.21, "mlp1": 0.76, "lstm0": 0.11, "lstm1": 0.20,
          "cnn0": 0.51, "cnn1": 0.14}

#: Table 6: per-die relative inference performance (CPU = 1).
TABLE6_GPU = {"mlp0": 2.5, "mlp1": 0.3, "lstm0": 0.4, "lstm1": 1.2,
              "cnn0": 1.6, "cnn1": 2.7}
TABLE6_TPU = {"mlp0": 41.0, "mlp1": 18.5, "lstm0": 3.5, "lstm1": 1.2,
              "cnn0": 40.3, "cnn1": 71.0}
TABLE6_MEANS = {"gpu_gm": 1.1, "gpu_wm": 1.9, "tpu_gm": 14.5, "tpu_wm": 29.2,
                "ratio_gm": 13.2, "ratio_wm": 15.3}

#: Table 7: performance model vs hardware counters (% cycle difference).
TABLE7 = {"mlp0": 0.068, "mlp1": 0.109, "lstm0": 0.077, "lstm1": 0.054,
          "cnn0": 0.082, "cnn1": 0.112, "average": 0.08}

#: Table 8: Unified Buffer MiB used per app (improved allocator).
TABLE8 = {"mlp0": 11.0, "mlp1": 2.3, "lstm0": 4.8, "lstm1": 4.5,
          "cnn0": 1.5, "cnn1": 13.9}

#: Figure 2: die area shares.
FIGURE2 = {"buffers": 0.37, "compute": 0.30, "io": 0.10, "control": 0.02}

#: Figure 4 / Section 2: shifting a weight tile in takes 256 cycles; once
#: the wave is flowing, the unit takes one input row per clock cycle.
FIGURE4 = {"shift_cycles_full_tile": 256, "pipelined_cycles_per_row": 1}

#: Figures 5-7: roofline ridge points (MACs per weight byte).
RIDGE_POINTS = {"tpu": 1350.0, "cpu": 13.0, "gpu": 9.0}

#: Figure 9: relative performance/Watt ranges (GM-WM pairs).
FIGURE9 = {
    ("GPU/CPU", "total"): (1.2, 2.1),
    ("TPU/CPU", "total"): (17.0, 34.0),
    ("TPU/GPU", "total"): (14.0, 16.0),
    ("TPU'/CPU", "total"): (31.0, 86.0),
    ("TPU'/GPU", "total"): (25.0, 41.0),
    ("GPU/CPU", "incremental"): (1.7, 2.9),
    ("TPU/CPU", "incremental"): (41.0, 83.0),
    ("TPU/GPU", "incremental"): (25.0, 29.0),
    ("TPU'/CPU", "incremental"): (69.0, 196.0),
    ("TPU'/GPU", "incremental"): (42.0, 68.0),
}

#: Figure 10 / Section 6: power at 10% load as a fraction of full load.
FIGURE10 = {
    ("cpu", "cnn0"): 0.56, ("gpu", "cnn0"): 0.66, ("tpu", "cnn0"): 0.88,
    ("cpu", "lstm1"): 0.47, ("gpu", "lstm1"): 0.78, ("tpu", "lstm1"): 0.94,
}
FIGURE10_FULL_LOAD_WATTS_PER_DIE = {"tpu_total": 118.0}

#: Figure 11 / Section 7 headline sensitivities (weighted mean).
FIGURE11 = {
    "memory_4x": 3.0,  # "performance improves 3X on average when memory increases 4X"
    "clock_4x": 1.0,  # "clock rate has little benefit on average"
    "matrix_2x": 1.0,  # "slightly degrades when the matrix unit expands"
}

#: Section 7: TPU' uplifts (GM, WM), raw and host-adjusted.
TPU_PRIME = {
    "memory_gm": 2.6, "memory_wm": 3.9, "both_gm": 2.9,
    "memory_gm_host": 1.9, "memory_wm_host": 3.2,
}

#: Section 8: K80 Boost mode on LSTM1.
BOOST_MODE = {"clock_ratio": 875 / 560, "perf": 1.4, "power": 1.3, "perf_per_watt": 1.1}

#: Section 6: Haswell server + 4 TPUs runs CNN0 ~80x faster for <20% more power.
SERVER_SCALE = {"cnn0_speedup": 80.0, "extra_power": 0.20}

#: Section 8: IPS extremes ("MLP1 at 360,000 IPS, CNN1 at 4,700 IPS" -> 75x).
IPS_RANGE = {"mlp1": 360_000, "cnn1": 4_700, "ratio": 75.0}
