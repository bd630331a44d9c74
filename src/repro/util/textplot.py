"""ASCII plotting: log-log scatter plots and line charts.

The paper's figures are log-log rooflines (Figs. 5-8), power curves
(Fig. 10), and scaling sweeps (Fig. 11).  These renderers draw them on a
character grid so ``python -m repro report`` can regenerate every figure
in a terminal with no plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Series:
    """A named collection of (x, y) points with a single-character marker."""

    name: str
    points: list[tuple[float, float]]
    marker: str = "*"
    connect: bool = False

    def __post_init__(self) -> None:
        if len(self.marker) != 1:
            raise ValueError(f"marker must be one character, got {self.marker!r}")


@dataclass
class AsciiPlot:
    """Character-grid plot supporting linear or log axes.

    Points outside the axis ranges are clamped to the border rather than
    dropped, which matches how roofline ceilings run off the chart edge.
    """

    title: str = ""
    x_label: str = "x"
    y_label: str = "y"
    width: int = 72
    height: int = 24
    log_x: bool = False
    log_y: bool = False
    series: list[Series] = field(default_factory=list)

    def add_series(
        self,
        name: str,
        points: list[tuple[float, float]],
        marker: str = "*",
        connect: bool = False,
    ) -> None:
        self.series.append(Series(name, list(points), marker, connect))

    # -- coordinate transforms -------------------------------------------
    def _transform(self, value: float, log: bool, axis: str) -> float:
        if log:
            if value <= 0:
                raise ValueError(f"log {axis}-axis requires positive values, got {value}")
            return math.log10(value)
        return value

    def _bounds(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for s in self.series:
            for x, y in s.points:
                xs.append(self._transform(x, self.log_x, "x"))
                ys.append(self._transform(y, self.log_y, "y"))
        if not xs:
            raise ValueError("cannot render a plot with no points")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x0 == x1:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y0 == y1:
            y0, y1 = y0 - 0.5, y1 + 0.5
        return x0, x1, y0, y1

    def _to_cell(
        self, x: float, y: float, bounds: tuple[float, float, float, float]
    ) -> tuple[int, int]:
        x0, x1, y0, y1 = bounds
        tx = self._transform(x, self.log_x, "x")
        ty = self._transform(y, self.log_y, "y")
        col = round((tx - x0) / (x1 - x0) * (self.width - 1))
        row = round((ty - y0) / (y1 - y0) * (self.height - 1))
        col = min(max(col, 0), self.width - 1)
        row = min(max(row, 0), self.height - 1)
        return self.height - 1 - row, col

    def render(self) -> str:
        bounds = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]
        for s in self.series:
            if s.connect and len(s.points) > 1:
                self._draw_polyline(grid, s, bounds)
            for x, y in s.points:
                r, c = self._to_cell(x, y, bounds)
                grid[r][c] = s.marker

        x0, x1, y0, y1 = bounds
        lines = []
        if self.title:
            lines.append(self.title)
        y_hi = self._format_axis_value(y1, self.log_y)
        y_lo = self._format_axis_value(y0, self.log_y)
        label_w = max(len(y_hi), len(y_lo), len(self.y_label)) + 1
        lines.append(f"{self.y_label:>{label_w}}")
        for i, row in enumerate(grid):
            prefix = y_hi if i == 0 else (y_lo if i == self.height - 1 else "")
            lines.append(f"{prefix:>{label_w}} |" + "".join(row))
        lines.append(" " * label_w + " +" + "-" * self.width)
        x_lo = self._format_axis_value(x0, self.log_x)
        x_hi = self._format_axis_value(x1, self.log_x)
        pad = self.width - len(x_lo) - len(x_hi)
        lines.append(" " * (label_w + 2) + x_lo + " " * max(pad, 1) + x_hi)
        lines.append(" " * (label_w + 2) + self.x_label)
        legend = "   ".join(f"{s.marker} {s.name}" for s in self.series)
        lines.append(" " * (label_w + 2) + legend)
        return "\n".join(lines)

    def _draw_polyline(
        self,
        grid: list[list[str]],
        s: Series,
        bounds: tuple[float, float, float, float],
    ) -> None:
        cells = [self._to_cell(x, y, bounds) for x, y in s.points]
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            steps = max(abs(r1 - r0), abs(c1 - c0), 1)
            for k in range(steps + 1):
                r = round(r0 + (r1 - r0) * k / steps)
                c = round(c0 + (c1 - c0) * k / steps)
                if grid[r][c] == " ":
                    grid[r][c] = "."

    @staticmethod
    def _format_axis_value(transformed: float, log: bool) -> str:
        value = 10.0**transformed if log else transformed
        if value != 0 and (abs(value) >= 10000 or abs(value) < 0.01):
            return f"{value:.2g}"
        return f"{value:.4g}"

    def __str__(self) -> str:
        return self.render()
