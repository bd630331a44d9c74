"""Tests of the benchmark's own machinery (no workload is run here)."""

import importlib.util
import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_counts(contract):
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = contract["end_to_end"] + contract["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_contract_matches_the_code(contract):
    assert [w["name"] for w in contract["workloads"]] == list(pb_workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(
        pb_trace.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", pb_workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    ops = pb_workloads.plan(workload, 7)
    assert ops == pb_workloads.plan(workload, 7)
    assert ops != pb_workloads.plan(workload, 8)
    assert len(ops) > bench_run.TAIL_OPS


def test_self_time_on_synthetic_spans():
    timer = pb_trace.SelfTimer()
    timer.enter("api", 0.0)
    timer.enter("fleet", 1.0)
    timer.enter("perfcache", 2.0)
    timer.exit(3.0)
    timer.exit(5.0)
    timer.enter("fleet", 6.0)
    timer.exit(7.0)
    timer.exit(10.0)
    assert timer.self_s == {"api": 5.0, "fleet": 4.0, "perfcache": 1.0}
    assert timer.incl_s == {"api": 10.0, "fleet": 5.0, "perfcache": 1.0}
    assert timer.calls == {"api": 1, "fleet": 2, "perfcache": 1}
    assert not timer.stack


def test_nested_spans_of_one_layer_count_once_inclusive():
    timer = pb_trace.SelfTimer()
    timer.enter("platforms", 0.0)
    timer.enter("platforms", 1.0)
    timer.exit(2.0)
    timer.exit(4.0)
    assert timer.self_s == {"platforms": 4.0}
    assert timer.incl_s == {"platforms": 4.0}
    assert timer.calls == {"platforms": 2}


def test_tail_leaves_ten_ops_above():
    assert bench_run.tail(list(range(1, 31))) == 20


def test_wrappers_fire_and_are_restored():
    import repro
    from repro import perfcache
    from repro.nn.workloads import build_workload

    originals = [pb_trace._resolve(t.path) for t in pb_trace.TARGETS]
    bound_early = repro.globe.plan_routes
    late = types.ModuleType("perfbench_late_import")
    sys.modules[late.__name__] = late
    try:
        with pb_trace.Tracer() as tracer, perfcache.disabled():
            assert repro.globe.plan_routes is not bound_early
            late.plan_routes = repro.globe.routing.plan_routes
            wrappers = tracer.wrappers
            driver = repro.TPUDriver()
            driver.profile(driver.compile(build_workload("mlp1")))
        assert late.plan_routes is bound_early
    finally:
        del sys.modules[late.__name__]
    assert tracer.timer.calls["compiler"] == 1 and tracer.timer.calls["core"] == 1
    assert tracer.counts["compiler.instructions"] > 0
    assert tracer.unfired("programs") == []
    assert repro.globe.plan_routes is bound_early
    assert repro.run is repro.api.runner.run
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    wrapper_ids = {id(w) for w in wrappers}  # ``wrappers`` keeps them alive
    for module in list(sys.modules.values()):
        for value in list(getattr(module, "__dict__", {}).values()):
            assert id(value) not in wrapper_ids
    metrics = pb_trace.layer_metrics(tracer, 1.0, 1.0, 1.0, (0, 0), (0, 0))
    assert set(metrics) == {name for name, _ in pb_trace.LAYER_METRICS}
