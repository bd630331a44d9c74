"""Tests for repro.util: units, statistics, tables, plots."""


import pytest
from hypothesis import given, strategies as st

from repro.util.stats import geometric_mean, weighted_mean
from repro.util.tables import TextTable
from repro.util.textplot import AsciiPlot, Series
from repro.util.units import GIB, KIB, MIB


class TestUnits:
    def test_binary_multipliers(self):
        assert KIB == 1024
        assert MIB == 1024**2
        assert GIB == 1024**3


class TestStats:
    def test_geometric_mean_known_value(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_weighted_mean_normalizes(self):
        assert weighted_mean([1, 3], [2, 2]) == pytest.approx(2.0)
        assert weighted_mean([1, 3], [1, 0]) == pytest.approx(1.0)

    def test_weighted_mean_rejects_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean([1, 2], [1])

    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=40))
    def test_geometric_mean_bounded_by_extremes(self, values):
        gm = geometric_mean(values)
        assert min(values) * 0.999 <= gm <= max(values) * 1.001


class TestTextTable:
    def test_render_contains_cells(self):
        table = TextTable(["App", "TOPS"], title="demo")
        table.add_row(["MLP0", 12.3])
        rendered = table.render()
        assert "MLP0" in rendered
        assert "12.30" in rendered
        assert "demo" in rendered

    def test_row_length_mismatch(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_add_rows_bulk(self):
        table = TextTable(["x"])
        table.add_rows([[1], [2], [3]])
        assert len(table.rows) == 3


class TestAsciiPlot:
    def test_log_plot_renders_points(self):
        plot = AsciiPlot(log_x=True, log_y=True)
        plot.add_series("apps", [(1, 1e12), (1000, 9e13)], marker="*")
        out = plot.render()
        assert "*" in out
        assert "apps" in out

    def test_connected_series_draws_line(self):
        plot = AsciiPlot()
        plot.add_series("line", [(0, 0), (10, 10)], marker="o", connect=True)
        assert "." in plot.render()

    def test_log_axis_rejects_nonpositive(self):
        plot = AsciiPlot(log_x=True)
        plot.add_series("bad", [(0, 1)])
        with pytest.raises(ValueError):
            plot.render()

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError):
            AsciiPlot().render()

    def test_marker_must_be_single_char(self):
        with pytest.raises(ValueError):
            Series("s", [(0, 0)], marker="ab")
