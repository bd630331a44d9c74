"""``repro.obs``: tracing and logging for the simulation stack.

The per-unit time attribution of the TPU paper's Table 3 becomes span
tracing (:mod:`repro.obs.trace`), exported as Chrome trace-event JSON
for Perfetto and summarized by :func:`span_summary`; ad-hoc stderr
diagnostics become one module-level logging setup
(:mod:`repro.obs.log`).  Counts live on the results themselves (the
device's ``CounterBank``, ``FleetResult``, ``LLMRunResult``, ...) and in
span args; spans are the only recorded artifact.

Tracing is **off by default and near-free when off**: disabled spans
return a shared no-op context manager, and the hot simulators check
``TRACER.enabled`` once per run before emitting anything -- the
paper-parity byte-identity pins hold with tracing disabled *and*
enabled.

Quick tour::

    from repro import obs

    with obs.capture() as tracer:            # or --trace-out / --profile
        driver.profile(driver.compile(model))
    tracer.write_chrome("trace.json")        # open in https://ui.perfetto.dev
    print(obs.span_summary(tracer.snapshot()).render())

CLI surfaces: ``profile``/``report``/``serve``/``datacenter``/``globe``/
``llm`` take ``--trace-out trace.json`` and ``--profile``;
``REPRO_TRACE_OUT=trace.json`` does what ``--trace-out`` does.
"""

from repro.obs.log import get_logger, setup as setup_logging
from repro.obs.profile import span_summary
from repro.obs.trace import (
    REQ_PID,
    SIM_PID,
    TRACER,
    WALL_PID,
    Span,
    Tracer,
    capture,
    span,
)

__all__ = [
    "REQ_PID",
    "SIM_PID",
    "TRACER",
    "WALL_PID",
    "Span",
    "Tracer",
    "capture",
    "get_logger",
    "setup_logging",
    "span",
    "span_summary",
]
