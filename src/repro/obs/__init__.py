"""``repro.obs``: tracing, metrics, and logging for the simulation stack.

The observability subsystem the TPU paper's methodology is built on,
in software: hardware performance counters become the metrics registry
(:mod:`repro.obs.metrics`), the per-unit time attribution of Table 3
becomes span tracing (:mod:`repro.obs.trace`) exported as Chrome
trace-event JSON for Perfetto, and ad-hoc stderr diagnostics become one
module-level logging setup (:mod:`repro.obs.log`).

Everything is **off by default and near-free when off**: disabled spans
return a shared no-op context manager, disabled instruments drop writes
at one branch, and the hot simulators check one flag per run before
emitting anything -- the paper-parity byte-identity pins hold with the
subsystem disabled *and* enabled.

Quick tour::

    from repro import obs

    with obs.capture() as tracer:            # or REPRO_TRACE=1 / --trace-out
        driver.profile(driver.compile(model))
    tracer.write_chrome("trace.json")        # open in https://ui.perfetto.dev

    obs.set_metrics(True)
    fleet.run(arrivals)
    obs.metrics_snapshot()                   # {'serving.batch_size': {...}, ...}

CLI surfaces: ``profile``/``report``/``serve``/``datacenter``/``globe``/
``llm`` take ``--trace-out trace.json``/``--trace-jsonl``/``--profile``;
``REPRO_TRACE_OUT=trace.json`` does what ``--trace-out`` does.
"""

from repro.obs.log import get_logger, setup as setup_logging
from repro.obs.metrics import (
    MAX_SAMPLES,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_enabled,
    metrics_snapshot,
    register_collector,
    set_metrics,
)
from repro.obs.profile import span_summary
from repro.obs.trace import (
    REQ_PID,
    SIM_PID,
    TRACER,
    WALL_PID,
    Span,
    Tracer,
    capture,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "MAX_SAMPLES",
    "REGISTRY",
    "REQ_PID",
    "SIM_PID",
    "TRACER",
    "WALL_PID",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "counter",
    "gauge",
    "get_logger",
    "histogram",
    "metrics_enabled",
    "metrics_snapshot",
    "register_collector",
    "set_metrics",
    "set_tracing",
    "setup_logging",
    "span",
    "span_summary",
    "tracing_enabled",
]
