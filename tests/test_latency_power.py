"""Queueing, Table 4, energy proportionality, and perf/Watt tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.latency.sweep import table4_rows
from repro.power.floorplan import category_shares, die_table
from repro.power.perfwatt import figure9_bars, server_scale_study
from repro.power.proportionality import (
    PowerCurve,
    calibrate_alpha,
    figure10_series,
    host_share_watts,
    platform_curve,
)
from repro.serving.batcher import FixedBatcher
from repro.serving.engine import ConstantCurve, run_closed_loop, summarize
from repro.serving.traffic import poisson_arrivals
from tests.test_serving import single_replica


class TestQueueSim:
    """One batching server: a one-replica fixed-batch fleet under Poisson
    load, and the closed-loop generator that drives Table 4."""

    @staticmethod
    def open_loop(rate, batch, occupancy, latency=None, n_requests=20000):
        fleet = single_replica(FixedBatcher(batch), occupancy, latency)
        return fleet.run(poisson_arrivals(rate, n_requests)).stats()

    @staticmethod
    def closed_loop(concurrency, batch, service):
        responses, server = run_closed_loop(concurrency, batch, ConstantCurve(service))
        return summarize(
            responses, horizon=server.free_at, busy_time=server.busy_time,
            warmup_fraction=0.25, batches=server.batches,
        )

    def test_p99_at_least_service(self):
        stats = self.open_loop(1000.0, 16, 2e-3, n_requests=5000)
        assert stats.completed == 5000
        assert stats.p99_seconds >= 2e-3

    def test_p99_grows_with_load_in_high_regime(self):
        # p99 vs load is U-shaped (batch collection dominates at low
        # load); in the queueing-dominated regime it must rise with load.
        mid = self.open_loop(6000.0, 16, 2e-3, n_requests=8000)
        high = self.open_loop(7840.0, 16, 2e-3, n_requests=8000)
        assert high.p99_seconds > mid.p99_seconds

    def test_collection_dominates_at_low_load(self):
        # "most applications keep their input queues empty": at tiny load
        # the batch-collection time stretches response times.
        stats = self.open_loop(100.0, 16, 2e-3, n_requests=2000)
        assert stats.p99_seconds > 10 * 2e-3

    def test_throughput_capped_by_capacity(self):
        stats = self.open_loop(1e6, 16, 2e-3, n_requests=5000)
        assert stats.throughput_rps <= 16 / 2e-3 * 1.01
        assert stats.utilization == pytest.approx(1.0, abs=0.02)

    def test_latency_occupancy_split(self):
        pipelined = self.open_loop(1000.0, 16, 1e-3, latency=3e-3, n_requests=4000)
        serial = self.open_loop(1000.0, 16, 3e-3, n_requests=4000)
        assert pipelined.p99_seconds <= serial.p99_seconds

    def test_input_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 100)
        with pytest.raises(ValueError):
            FixedBatcher(0)

    def test_closed_loop_depth_inflates_p99(self):
        shallow = self.closed_loop(16, 16, 2e-3)
        deep = self.closed_loop(64, 16, 2e-3)
        assert deep.p99_seconds > shallow.p99_seconds
        assert deep.throughput_rps == pytest.approx(16 / 2e-3)

    def test_closed_loop_requires_full_batches(self):
        with pytest.raises(ValueError):
            run_closed_loop(8, 16, ConstantCurve(1e-3))

    @given(st.integers(1, 6), st.floats(1e-4, 1e-2))
    @settings(max_examples=20, deadline=None)
    def test_closed_loop_p99_scales_with_depth(self, depth, service):
        stats = self.closed_loop(16 * depth, 16, service)
        assert stats.p99_seconds == pytest.approx(depth * service, rel=0.3)


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self, workloads):
        from repro.analysis.common import platforms

        return table4_rows(workloads["mlp0"], platforms())

    def test_six_rows(self, rows):
        assert len(rows) == 6

    def test_small_batches_run_at_minority_of_max(self, rows):
        by_key = {(r.platform, r.batch): r for r in rows}
        assert 0.3 < by_key[("Haswell", 16)].pct_of_max < 0.55  # paper 42%
        assert 0.3 < by_key[("K80", 16)].pct_of_max < 0.55  # paper 37%
        assert by_key[("TPU", 200)].pct_of_max > 0.75  # paper 80%

    def test_tpu_meets_sla_at_production_batch(self, rows):
        by_key = {(r.platform, r.batch): r for r in rows}
        assert by_key[("TPU", 200)].met_sla
        assert by_key[("TPU", 200)].ips > 100_000

    def test_cpu_large_batch_misses_sla(self, rows):
        by_key = {(r.platform, r.batch): r for r in rows}
        assert not by_key[("Haswell", 64)].met_sla
        assert by_key[("Haswell", 64)].p99_seconds > 7e-3

    def test_ips_ordering(self, rows):
        by_key = {(r.platform, r.batch): r for r in rows}
        assert (by_key[("TPU", 200)].ips > by_key[("K80", 64)].ips
                > by_key[("Haswell", 64)].ips)


class TestProportionality:
    def test_calibrated_ratios_reproduce(self):
        for (kind, app), ratio in (
            (("tpu", "cnn0"), 0.88),
            (("gpu", "cnn0"), 0.66),
            (("cpu", "cnn0"), 0.56),
            (("tpu", "lstm1"), 0.94),
        ):
            curve = platform_curve(kind, app)
            assert curve.ratio_at(0.1) == pytest.approx(ratio, abs=0.01)

    def test_tpu_is_least_proportional(self):
        ratios = {
            kind: platform_curve(kind, "cnn0").ratio_at(0.1)
            for kind in ("cpu", "gpu", "tpu")
        }
        assert ratios["tpu"] > ratios["gpu"] > ratios["cpu"]

    def test_calibrate_alpha_validates(self):
        with pytest.raises(ValueError):
            calibrate_alpha(10, 10, 0.5)
        with pytest.raises(ValueError):
            calibrate_alpha(10, 20, 0.1)  # implies power below idle

    def test_curve_monotone(self):
        curve = platform_curve("tpu", "cnn0")
        watts = [curve.watts(u / 10) for u in range(11)]
        assert watts == sorted(watts)

    def test_figure10_tpu_total_near_118(self):
        series = figure10_series("cnn0")
        tpu_total = dict(series["TPU+host/4"])[1.0]
        assert tpu_total == pytest.approx(118, rel=0.05)  # paper ~118 W/die

    def test_figure10_tpu_incremental_is_40w(self):
        series = figure10_series("cnn0")
        assert dict(series["TPU (incremental)"])[1.0] == pytest.approx(40.0)

    def test_host_share_at_full_load(self):
        # Section 6: the CPU server runs at 69% of full power for the TPU.
        assert host_share_watts("tpu", 1.0) == pytest.approx(0.69 * 455, rel=0.01)
        assert host_share_watts("gpu", 1.0) == pytest.approx(0.52 * 455, rel=0.01)


#: Curve parameters spanning every calibrated platform and then some.
curve_params = st.tuples(
    st.floats(1.0, 500.0),  # idle W
    st.floats(1.0, 2000.0),  # busy increment above idle
    st.floats(0.02, 5.0),  # alpha (TPU's is ~0.04; proportional is 1)
)


class TestProportionalityProperties:
    """Hypothesis contracts for the PowerCurve family."""

    @given(curve_params, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_watts_monotone_in_utilization(self, params, u1, u2):
        idle, extra, alpha = params
        curve = PowerCurve("prop", idle_w=idle, busy_w=idle + extra, alpha=alpha)
        lo, hi = sorted((u1, u2))
        assert curve.watts(lo) <= curve.watts(hi) + 1e-9

    @given(curve_params)
    @settings(max_examples=50, deadline=None)
    def test_ratio_at_full_load_is_one(self, params):
        idle, extra, alpha = params
        curve = PowerCurve("prop", idle_w=idle, busy_w=idle + extra, alpha=alpha)
        assert curve.ratio_at(1.0) == pytest.approx(1.0)
        assert curve.idle_w <= curve.watts(0.5) <= curve.busy_w

    @given(
        st.floats(1.0, 500.0),
        st.floats(1.0, 2000.0),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_calibrate_alpha_round_trips(self, idle, extra, fraction):
        # Any ratio strictly between idle/busy and 1 is reachable; the
        # calibrated curve must reproduce it at 10% load.
        busy = idle + extra
        ratio = (idle + fraction * extra) / busy
        alpha = calibrate_alpha(idle, busy, ratio)
        curve = PowerCurve("prop", idle_w=idle, busy_w=busy, alpha=alpha)
        assert curve.ratio_at(0.1) == pytest.approx(ratio, rel=1e-6)


class TestPerfWatt:
    @pytest.fixture(scope="class")
    def bars(self, workloads):
        from repro.analysis.common import platforms

        return {(b.comparison, b.basis): b for b in figure9_bars(workloads, platforms())}

    def test_tpu_total_band(self, bars):
        bar = bars[("TPU/CPU", "total")]
        assert 12 <= bar.gm <= 40  # paper 17-34

    def test_tpu_incremental_band(self, bars):
        bar = bars[("TPU/CPU", "incremental")]
        assert 30 <= bar.gm <= 90  # paper 41-83

    def test_gpu_bands(self, bars):
        assert 0.8 <= bars[("GPU/CPU", "total")].gm <= 2.5
        assert 1.2 <= bars[("GPU/CPU", "incremental")].gm <= 3.5

    def test_prime_beats_tpu(self, bars):
        assert bars[("TPU'/CPU", "total")].gm > bars[("TPU/CPU", "total")].gm

    def test_incremental_exceeds_total(self, bars):
        for comparison in ("TPU/CPU", "TPU'/CPU", "GPU/CPU"):
            assert (bars[(comparison, "incremental")].gm
                    > bars[(comparison, "total")].gm)

    def test_server_scale_study(self, workloads):
        from repro.analysis.common import platforms

        study = server_scale_study(workloads, platforms())
        assert study.cnn0_speedup > 30  # paper ~80x
        assert study.extra_power_fraction < 0.5  # paper <20%


class TestFloorplan:
    def test_category_shares_match_figure2(self):
        shares = category_shares()
        assert shares["buffers"] == pytest.approx(0.37, abs=0.01)
        assert shares["compute"] == pytest.approx(0.30, abs=0.01)
        assert shares["io"] == pytest.approx(0.10, abs=0.01)
        assert shares["control"] == pytest.approx(0.02, abs=0.005)

    def test_shares_sum_to_one(self):
        assert sum(category_shares().values()) == pytest.approx(1.0, abs=0.01)

    def test_datapath_is_two_thirds(self):
        shares = category_shares()
        assert shares["buffers"] + shares["compute"] == pytest.approx(2 / 3, abs=0.04)

    def test_die_table_renders(self):
        text = die_table().render()
        assert "Unified Buffer" in text
        assert "Matrix Multiply Unit" in text
