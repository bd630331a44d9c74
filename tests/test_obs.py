"""Observability tests: trace validity, zero-overhead disabled mode,
span args against the results they describe, logging, and the CLI
trace surfaces."""

import json
import logging
import re
from pathlib import Path

import pytest

from repro import obs, perfcache
from repro.analysis import EXPERIMENTS
from repro.compiler.driver import TPUDriver
from repro.nn.workloads import paper_workloads
from repro.serving.batcher import FixedBatcher
from repro.serving.engine import ConstantCurve
from repro.serving.fleet import Fleet, Replica


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends with tracing off and empty."""
    obs.TRACER.enabled = False
    obs.TRACER.clear()
    yield
    obs.TRACER.enabled = False
    obs.TRACER.clear()


def _small_fleet_run():
    curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=2e-3)
    fleet = Fleet(
        [Replica(curve, FixedBatcher(4)) for _ in range(2)],
        router="jsq",
    )
    arrivals = [i * 2.5e-4 for i in range(64)]
    return fleet.run(__import__("numpy").asarray(arrivals))


def _traced_all_layers():
    """Compile + profile a fresh model and run a fleet inside capture()."""
    # Fresh driver + cold emission memo: the compile cannot cache-hit,
    # so the trace contains real pass:/allocate: spans.
    perfcache.GLOBAL_LOWERING.invalidate("mlp0")
    with obs.capture() as tracer:
        driver = TPUDriver()
        compiled = driver.compile(paper_workloads()["mlp0"])
        driver.profile(compiled)
        _small_fleet_run()
        spans = tracer.snapshot()
        trace = tracer.chrome_trace()
    return spans, trace


# ----------------------------------------------------------------------
# trace format
# ----------------------------------------------------------------------
def test_chrome_trace_has_required_keys_and_layers():
    spans, trace = _traced_all_layers()
    events = trace["traceEvents"]
    assert events, "traced run produced no events"
    for event in events:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in event, f"event missing {key!r}: {event}"
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["dur"] >= 0
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"compiler", "device", "serving"} <= cats, cats
    # Both clock domains present: wall (compiler/device) and simulated.
    pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert obs.WALL_PID in pids and obs.SIM_PID in pids


def test_spans_nest_monotonically_per_track():
    """Wall tracks form a call tree; replica tracks serialize batches.

    Request lifecycle spans (REQ_PID) overlap by design -- a request is
    an arrival-to-completion interval, not a call frame -- so the
    nesting invariant applies to the other two clock domains.
    """
    spans, _ = _traced_all_layers()
    by_track = {}
    for span in spans:
        if span.pid != obs.REQ_PID:
            by_track.setdefault((span.pid, span.tid), []).append(span)
    assert by_track
    eps = 1e-3  # microseconds; perf_counter jitter guard
    for track, track_spans in by_track.items():
        track_spans.sort(key=lambda s: (s.ts, -s.dur))
        stack = []  # end timestamps of open spans
        for span in track_spans:
            while stack and stack[-1] <= span.ts + eps:
                stack.pop()
            if stack:
                assert span.ts + span.dur <= stack[-1] + eps, (
                    f"span {span.name!r} on track {track} overlaps its "
                    "enclosing span without nesting"
                )
            stack.append(span.ts + span.dur)


def test_compile_span_encloses_pass_spans():
    spans, _ = _traced_all_layers()
    compile_spans = [s for s in spans if s.name == "compile:mlp0"]
    passes = [s for s in spans if s.name.startswith("pass:mlp0.")]
    assert compile_spans and passes
    outer = compile_spans[0]
    for inner in passes:
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-3


def test_request_spans_live_on_their_own_pid():
    spans, _ = _traced_all_layers()
    requests = [s for s in spans if s.name == "request"]
    assert len(requests) == 64  # every arrival got a lifecycle span
    assert {s.pid for s in requests} == {obs.REQ_PID}
    batches = [s for s in spans if s.name == "batch"]
    assert batches and {s.pid for s in batches} == {obs.SIM_PID}


def test_trace_exports_round_trip(tmp_path):
    _, trace = _traced_all_layers()
    with obs.capture() as tracer:
        with obs.span("outer", cat="test", answer=42):
            pass
        chrome_path = tmp_path / "trace.json"
        n_chrome = tracer.write_chrome(str(chrome_path))
    assert n_chrome == 1
    loaded = json.loads(chrome_path.read_text())
    assert loaded["traceEvents"][-1]["args"] == {"answer": 42}


# ----------------------------------------------------------------------
# disabled mode is really off
# ----------------------------------------------------------------------
def test_disabled_tracer_records_nothing():
    assert not obs.TRACER.enabled
    driver = TPUDriver()
    compiled = driver.compile(paper_workloads()["mlp0"])
    driver.profile(compiled)
    _small_fleet_run()
    assert obs.TRACER.events == []
    assert obs.span("x") is obs.span("y")  # the shared no-op span


def test_paper_table_bytes_identical_with_tracing_enabled():
    """Tracing observes; it must not move a rendered byte (spot check)."""
    import hashlib

    from tests.test_paper_parity import TABLE_TEXT_SHA256

    for exp_id in ("table1", "table6"):
        with obs.capture():
            result = EXPERIMENTS[exp_id]()
        digest = hashlib.sha256(result.text.encode()).hexdigest()
        assert digest == TABLE_TEXT_SHA256[exp_id], (
            f"{exp_id} changed when tracing was enabled"
        )


# ----------------------------------------------------------------------
# span args agree with the results they describe
# ----------------------------------------------------------------------
def test_serving_metrics_recorded_per_batch():
    with obs.capture() as tracer:
        result = _small_fleet_run()
    batches = [s for s in tracer.snapshot() if s.name == "batch"]
    assert len(batches) == sum(result.batches_per_replica)
    assert sum(s.args["batch"] for s in batches) == 64
    assert max(s.args["batch"] for s in batches) <= 4


def test_fleet_run_is_one_wall_span():
    """Each fleet run records one ``serving.fleet`` wall span (perfbench's
    layer name) naming its request and replica counts; untraced, none."""
    with obs.capture() as tracer:
        _small_fleet_run()
    fleet = [s for s in tracer.snapshot() if s.name == "serving.fleet"]
    assert [(s.pid, s.cat, s.args) for s in fleet] == [
        (obs.WALL_PID, "serving", {"requests": 64, "replicas": 2})
    ]
    assert fleet[0].dur > 0


def test_device_metrics_mirror_cycle_breakdown():
    driver = TPUDriver()
    compiled = driver.compile(paper_workloads()["mlp0"])
    with obs.capture() as tracer:
        result = driver.profile(compiled)
    runs = [s for s in tracer.snapshot() if s.name == "device:mlp0"]
    assert len(runs) == 1
    assert runs[0].args["cycles"] == result.cycles
    assert runs[0].args["mxu_active_frac"] == round(result.breakdown.active_fraction, 4) > 0


# ----------------------------------------------------------------------
# profile summary + logging
# ----------------------------------------------------------------------
def test_span_summary_groups_and_ranks():
    with obs.capture() as tracer:
        tracer.record_wall("slow", 0.0, 3000.0, cat="test")
        tracer.record_wall("fast", 0.0, 1000.0, cat="test")
        tracer.record_wall("fast", 1000.0, 1000.0, cat="test")
        tracer.sim_span("batch", 0.0, 1.0, cat="serving", tid=0)
        table = obs.span_summary(tracer.snapshot())
    text = table.render()
    lines = [line for line in text.splitlines() if "|" in line]
    assert any("slow" in line and "wall" in line for line in lines)
    assert any("batch" in line and "sim" in line for line in lines)
    fast_row = next(line for line in lines if "fast" in line)
    assert " 2 " in fast_row  # count column groups the two fast spans


def test_logging_goes_to_current_stderr(capsys):
    log = obs.get_logger("repro.test_obs")
    log.info("hello from the logger")
    assert "hello from the logger" in capsys.readouterr().err
    assert log.level in (logging.NOTSET,)  # children inherit the root level


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_trace_out_writes_chrome_trace(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    code = main([
        "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5", "--trace-out", str(out),
    ])
    assert code == 0
    events = json.loads(out.read_text())["traceEvents"]
    cats = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert "serving" in cats
    assert not obs.TRACER.enabled  # the CLI restored the global state


def test_cli_profile_flag_prints_span_table(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5", "--profile",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "span-time profile" in err
    # The fleet simulation, where serve spends its time, has its row.
    assert re.search(r"\|\s*wall\s*\|\s*serving\.fleet\s*\|\s*1\s*\|", err), err
    assert not obs.TRACER.enabled


def test_env_trace_out_enables_tracing(tmp_path, monkeypatch):
    from repro.__main__ import main

    out = tmp_path / "env_trace.json"
    monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
    code = main([
        "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5",
    ])
    assert code == 0
    assert json.loads(out.read_text())["traceEvents"]


def test_environment_switches_are_observability_only():
    """The only ``REPRO_*`` variables the library reads are the
    observability ones.  Each layer has one implementation, so no switch
    may pick between a fast path and a reference path."""
    package = Path(obs.__file__).resolve().parents[1]
    names = set()
    for path in package.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert names == {"REPRO_TRACE_OUT", "REPRO_LOG"}
