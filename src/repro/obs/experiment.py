"""Experiment series: the rows/columns the paper's figures plot.

Each benchmark produces one :class:`ExperimentSeries` per plotted line
(e.g. "obstacle R-tree page accesses" vs the x-axis parameter) and the
harness renders them in the same layout as the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["ExperimentSeries", "format_table"]


@dataclass
class ExperimentSeries:
    """One plotted line: a name plus ``(x, y)`` samples."""

    name: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one sample."""
        self.xs.append(x)
        self.ys.append(y)

    def as_rows(self) -> list[tuple[float, float]]:
        """Samples as ``(x, y)`` tuples."""
        return list(zip(self.xs, self.ys))


def format_table(
    title: str,
    x_label: str,
    series: Sequence[ExperimentSeries],
    x_format: str = "{:g}",
    y_format: str = "{:.3f}",
) -> str:
    """Render series in a paper-figure-like text table.

    All series must share the same x samples (the figure's x-axis).
    """
    if not series:
        return f"== {title} ==\n(no data)"
    xs = series[0].xs
    for s in series:
        if s.xs != xs:
            raise ValueError(f"series {s.name!r} has mismatched x samples")
    headers = [x_label] + [s.name for s in series]
    rows = [headers]
    for i, x in enumerate(xs):
        row = [x_format.format(x)]
        row.extend(y_format.format(s.ys[i]) for s in series)
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    lines = [f"== {title} =="]
    for r_i, row in enumerate(rows):
        line = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(line)
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
