"""Smoke tests for the tracked benchmark harness (``python -m repro bench``).

Marked ``bench`` so the suite can be selected (``-m bench``) or skipped
(``-m "not bench"``) independently; CI runs the harness itself via
``repro bench --quick`` and these tests pin its contract: the JSON
schema, the cache-engagement guarantee (a repeated sweep must hit), and
the device fast path being active by default.
"""

from __future__ import annotations

import json

import pytest

from repro import benchmark

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """One tiny harness run shared by the schema/content assertions."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    written = benchmark.write_bench(str(out), quick=True, jobs=2)
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(written))
    return on_disk


def test_schema_valid(payload):
    benchmark.validate(payload)
    assert payload["schema"] == benchmark.SCHEMA
    assert payload["quick"] is True


def test_expected_scenarios_present(payload):
    names = [bench["name"] for bench in payload["benches"]]
    assert names == [
        "report_jobs2_quick",
        "compile_cold",
        "compile_warm",
        "provisioning_search",
        "provisioning_research",
        "serving_sweep",
        "serving_sweep_repeat",
        "serving_inner_loop",
        "global_sweep",
        "llm_decode_curve",
    ]


def test_warm_compile_beats_cold(payload):
    """The emission memo must make recompiles cheaper than cold lowers."""
    by_name = {bench["name"]: bench for bench in payload["benches"]}
    assert by_name["compile_warm"]["wall_seconds"] < by_name["compile_cold"]["wall_seconds"]


def test_latest_bench_name(tmp_path):
    """Name discovery: highest N wins; empty dirs fall back to BENCH_0."""
    assert benchmark.latest_bench_name(str(tmp_path)) == "BENCH_0.json"
    for n in (3, 11, 7):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")  # non-numeric: ignored
    assert benchmark.latest_bench_name(str(tmp_path)) == "BENCH_11.json"
    # The repo-root default reflects the committed trajectory.
    assert benchmark.latest_bench_name().startswith("BENCH_")


def test_repeated_sweep_hits_the_cache(payload):
    """The whole point: identical re-evaluations are served from cache."""
    by_name = {bench["name"]: bench for bench in payload["benches"]}
    assert by_name["serving_sweep_repeat"]["cache_hit_rate"] > 0
    assert by_name["provisioning_research"]["cache_hit_rate"] > 0


def test_wall_seconds_positive(payload):
    for bench in payload["benches"]:
        assert bench["wall_seconds"] > 0


def test_device_fast_path_engaged_by_default(monkeypatch):
    """Timing runs of compiled programs must take the precomputed plan."""
    from repro.compiler.driver import TPUDriver
    from repro.core import device as device_mod
    from repro.nn.workloads import build_workload

    compiled = TPUDriver.shared().compile(build_workload("mlp0"))
    plan = device_mod._timing_plan_for(compiled.program, device_mod.TPU_V1)
    assert plan is not None, "paper programs must take the precomputed plan"
    runs = []
    original = device_mod._execute_plan

    def spy(plan, *args):
        runs.append(plan)
        return original(plan, *args)

    monkeypatch.setattr(device_mod, "_execute_plan", spy)
    device_mod.TPUDevice().run(compiled.program)
    assert runs == [plan]


def test_validate_rejects_malformed():
    good = {
        "schema": benchmark.SCHEMA,
        "git_rev": "abc1234",
        "benches": [
            {"name": "x", "wall_seconds": 0.1, "cache_hit_rate": 0.5},
        ],
    }
    benchmark.validate(good)
    for breakage in (
        {"schema": "other/9"},
        {"git_rev": ""},
        {"benches": []},
        {"benches": [{"name": "", "wall_seconds": 0.1, "cache_hit_rate": 0.5}]},
        {"benches": [{"name": "x", "wall_seconds": -1, "cache_hit_rate": 0.5}]},
        {"benches": [{"name": "x", "wall_seconds": 0.1, "cache_hit_rate": 1.5}]},
    ):
        with pytest.raises(ValueError):
            benchmark.validate({**good, **breakage})
