"""Integration tests: every experiment regenerates with the right shape."""

import pytest

from repro import _paper
from repro.analysis import EXPERIMENTS
from repro.analysis.common import ExperimentResult


@pytest.fixture(scope="module")
def results():
    return {exp_id: fn() for exp_id, fn in EXPERIMENTS.items()}


class TestHarness:
    def test_all_experiments_registered(self):
        for exp in ("table1", "table8", "figure2", "figure11", "tpu_prime"):
            assert exp in EXPERIMENTS

    def test_every_experiment_runs_and_renders(self, results):
        for exp_id, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.exp_id == exp_id
            assert len(result.text) > 50
            assert str(result).startswith(f"== {exp_id}")

    def test_report_rendering(self, results):
        from repro.analysis.report import render_markdown

        markdown = render_markdown(results)
        for exp_id in results:
            assert f"## {exp_id}:" in markdown

    def test_list_title_is_the_report_header(self, results, capsys):
        """Each experiment has one title: ``repro list --json`` prints the
        string the report's ``## <id>: <title>`` header shows."""
        import json

        from repro.__main__ import main
        from repro.analysis.report import render_markdown

        assert main(["list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["experiments"]
        headers = [
            line for line in render_markdown(results).splitlines() if line.startswith("## ")
        ]
        assert headers == [f"## {exp_id}: {listed[exp_id]['title']}" for exp_id in EXPERIMENTS]

    def test_paper_dicts_hold_only_published_numbers(self, results):
        """Every number in a ``paper`` dict is one ``repro._paper``
        publishes, never a model value; a scenario's own settings (its
        SLOs) are reported in ``measured``, never in ``paper``."""

        def numbers(obj):
            if isinstance(obj, dict):
                obj = [*obj.keys(), *obj.values()]
            if isinstance(obj, (list, tuple)):
                return [x for item in obj for x in numbers(item)]
            is_number = isinstance(obj, (int, float)) and not isinstance(obj, bool)
            return [obj] if is_number else []

        published = set(numbers([getattr(_paper, name) for name in dir(_paper) if name.isupper()]))
        for exp_id, result in results.items():
            assert [x for x in numbers(result.paper) if x not in published] == [], exp_id
            scenario = EXPERIMENTS[exp_id].scenario
            if scenario is None:
                continue
            own = [key for key in result.paper if isinstance(key, str) and hasattr(scenario, key)]
            assert own == [], exp_id
            for key in ("slo_seconds", "slo_tpot_ms", "slo_ttft_ms"):
                if hasattr(scenario, key):
                    assert result.measured[key] == getattr(scenario, key), (exp_id, key)


class TestTable3Bands:
    def test_memory_bound_apps(self, results):
        measured = results["table3"].measured
        for app in ("mlp0", "mlp1", "lstm0", "lstm1"):
            assert measured[app]["weight_stall"] > 0.4, app
            assert measured[app]["active"] < 0.25, app

    def test_cnn0_active_band(self, results):
        # Paper: 78.2% array-active for CNN0.
        assert results["table3"].measured["cnn0"]["active"] == pytest.approx(
            0.782, abs=0.15
        )

    def test_tops_bands(self, results):
        measured = results["table3"].measured
        assert measured["mlp0"]["tops"] == pytest.approx(12.3, rel=0.3)
        assert measured["mlp1"]["tops"] == pytest.approx(9.7, rel=0.3)
        assert measured["lstm0"]["tops"] == pytest.approx(3.7, rel=0.4)
        assert 40 <= measured["cnn0"]["tops"] <= 92
        assert 10 <= measured["cnn1"]["tops"] <= 40

    def test_cnn1_unused_macs(self, results):
        # Paper: 23.7% of cycles carry unused MACs (shallow depth).
        assert results["table3"].measured["cnn1"]["unused"] > 0.15


class TestTable5Bands:
    def test_mlp1_has_largest_host_share(self, results):
        measured = results["table5"].measured
        assert measured["mlp1"] == max(measured.values())

    def test_mlp0_band(self, results):
        assert results["table5"].measured["mlp0"] == pytest.approx(0.21, abs=0.12)


class TestTable8Bands:
    def test_all_fit_24mib(self, results):
        for app in _paper.TABLE8:
            assert results["table8"].measured[app] < 24.0

    def test_cnn1_is_largest(self, results):
        measured = {a: results["table8"].measured[a] for a in _paper.TABLE8}
        assert max(measured, key=measured.get) == "cnn1"

    def test_values_within_band(self, results):
        for app, published in _paper.TABLE8.items():
            measured = results["table8"].measured[app]
            assert measured == pytest.approx(published, rel=0.55), app

    def test_14mib_would_suffice(self, results):
        # The paper's improved allocator needed at most 14 MiB.
        assert results["table8"].measured["max"] <= 14.5


class TestRooflineFigures:
    def test_ridge_points(self, results):
        assert results["figure5"].measured["ridge"] == pytest.approx(1350, rel=0.02)
        assert results["figure6"].measured["ridge"] == pytest.approx(13, rel=0.05)
        assert results["figure7"].measured["ridge"] == pytest.approx(9, rel=0.05)

    def test_tpu_apps_split_by_bound(self, results):
        # MLPs and LSTMs hug the slanted ceiling; CNN0 nears the flat top.
        points = results["figure5"].measured["points"]
        assert points["cnn0"]["tops"] > 40
        assert points["lstm0"]["tops"] < 10

    @pytest.mark.parametrize("exp_id, fp32_peak_tops", [("figure6", 1.4), ("figure7", 3.0)])
    def test_apps_stay_under_fp32_peak(self, results, exp_id, fp32_peak_tops):
        # Response-time limits keep every app under the fp32 peak except
        # cnn0, whose 8-bit AVX2 (CPU) and cuDNN (GPU) code beats the
        # direct-convolution op count.
        for app, point in results[exp_id].measured["points"].items():
            if app != "cnn0":
                assert point["tops"] < fp32_peak_tops, app

    def test_all_tpu_stars_above_other_rooflines(self, results):
        assert results["figure8"].measured["tpu_stars_at_or_above_other_rooflines"]

    def test_systolic_figure_exact(self, results):
        assert results["figure4"].measured["exact"] is True


class TestHeadlineClaims:
    def test_figure9_tpu_cpu_band(self, results):
        gm, _wm = results["figure9"].measured[("TPU/CPU", "total")]
        assert 12 <= gm <= 40  # paper 17-34

    def test_figure11_headlines(self, results):
        measured = results["figure11"].measured
        assert 2.5 <= measured["memory_4x"] <= 4.0
        assert measured["clock_4x"] <= 1.35
        assert measured["matrix_2x"] <= 1.05

    def test_tpu_prime_memory_uplift(self, results):
        measured = results["tpu_prime"].measured
        assert 2.0 <= measured["memory_gm"] <= 4.0  # paper 2.6
        assert 2.0 <= measured["memory_wm_host"] <= 4.5  # paper 3.2

    def test_boost_mode_minor_gain(self, results):
        measured = results["boost_mode"].measured
        assert measured["perf_per_watt"] == pytest.approx(1.1, abs=0.2)

    def test_server_scale(self, results):
        assert results["server_scale"].measured["speedup"] > 30

    def test_ips_is_a_poor_metric(self, profiles, workloads, driver):
        # Section 8 pitfall: TPU IPS varies ~75x across apps.
        ips = {
            name: driver.ips(driver.compile(model), profiles[name])
            * workloads[name].steps_per_example
            for name, model in workloads.items()
        }
        assert max(ips.values()) / min(ips.values()) > 25
