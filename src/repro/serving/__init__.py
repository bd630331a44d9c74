"""Datacenter serving simulation: SLO-bounded batching at fleet scale.

The paper's headline serving result (Table 4) is that the 7 ms
99th-percentile limit on MLP0 forbids the large batches accelerators
want: the CPU and GPU are capped near batch 16 (42%/37% of their peak
throughput) while the TPU's deterministic execution sustains batch 200
at ~80% of peak.  This package turns that single-server observation into
an event-driven, multi-device serving simulator:

* :mod:`repro.serving.engine`  -- the batch server, latency curves,
  shared response-time statistics and the closed-loop load generator;
* :mod:`repro.serving.batcher` -- dynamic batching policies (fixed,
  batch-with-timeout, SLO-adaptive from the platform latency curve);
* :mod:`repro.serving.fleet`   -- N replicated accelerators behind a
  round-robin or join-shortest-queue router, on one event heap;
* :mod:`repro.serving.traffic` -- Poisson / trace / diurnal open-loop
  load generation;
* :mod:`repro.serving.sweep`   -- load sweeps that emit the
  p99-vs-throughput operating curve and the max sustainable throughput
  under an SLO;
* :mod:`repro.serving.continuous` -- iteration-level (continuous)
  batching for transformer decode under a KV-cache capacity budget,
  with a fixed-gang baseline and disaggregated prefill/decode pools
  (validated against :mod:`repro.serving.llm_reference`).

Try it: ``python -m repro serve --workload mlp0 --replicas 4 --slo-ms 7``.
"""

from repro.serving.batcher import (
    Batcher,
    FixedBatcher,
    SLOAdaptiveBatcher,
    TimeoutBatcher,
    make_batcher,
)
from repro.serving.continuous import (
    LLM_VALIDATION_RTOL,
    ContinuousBatchingSim,
    ContinuousConfig,
    LLMRunResult,
    build_llm_config,
    fleet_capacity_tokens_per_s,
    llm_row,
    run_llm_point,
    sample_llm_requests,
)
from repro.serving.engine import (
    BatchServer,
    ConstantCurve,
    LatencyCurve,
    ServingStats,
    run_closed_loop,
    summarize,
)
from repro.serving.fleet import (
    Fleet,
    FleetResult,
    FleetSim,
    PlatformCurve,
    Replica,
    occupancy_latency,
)
from repro.serving.sweep import (
    FleetSpec,
    OperatingPoint,
    max_throughput_under_slo,
    run_point,
    serving_sweep,
    sweep_table,
)
from repro.serving.traffic import (
    diurnal_arrivals,
    load_trace,
    make_traffic,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)

__all__ = [
    "BatchServer",
    "ContinuousBatchingSim",
    "ContinuousConfig",
    "LLMRunResult",
    "LLM_VALIDATION_RTOL",
    "Batcher",
    "ConstantCurve",
    "FixedBatcher",
    "Fleet",
    "FleetResult",
    "FleetSim",
    "FleetSpec",
    "LatencyCurve",
    "OperatingPoint",
    "PlatformCurve",
    "Replica",
    "SLOAdaptiveBatcher",
    "ServingStats",
    "TimeoutBatcher",
    "build_llm_config",
    "diurnal_arrivals",
    "fleet_capacity_tokens_per_s",
    "llm_row",
    "run_llm_point",
    "sample_llm_requests",
    "load_trace",
    "make_batcher",
    "make_traffic",
    "max_throughput_under_slo",
    "occupancy_latency",
    "poisson_arrivals",
    "run_closed_loop",
    "run_point",
    "serving_sweep",
    "summarize",
    "sweep_table",
    "trace_arrivals",
    "uniform_arrivals",
]
