"""Render Figures 7 and 8: session-average response time bars.

The paper's summary figures plot, for each client group (local/remote x
browser/buyer-or-bidder), the mean response time over every request of
that group's sessions, across the five configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.patterns import PatternLevel, level_name
from .runner import APPS, CellResult

__all__ = ["FigureData", "build_figure", "render_figure"]

PAPER_FIGURES = {
    "petstore": (7, "Java Pet Store session average response times"),
    "rubis": (8, "RUBiS session average response times"),
}


@dataclass
class FigureData:
    """(group, level) -> session-mean response time in ms."""

    app: str
    groups: List[str]
    series: Dict[Tuple[str, PatternLevel], float] = field(default_factory=dict)
    # Custom bar labels (custom-policy runs); absent levels use level_name.
    labels: Dict[PatternLevel, str] = field(default_factory=dict)

    def bar_label(self, level: PatternLevel) -> str:
        return self.labels.get(PatternLevel(level)) or level_name(level)

    def value(self, group: str, level: PatternLevel) -> float:
        return self.series.get((group, PatternLevel(level)), float("nan"))

    @property
    def levels(self) -> List[PatternLevel]:
        return sorted({level for (_g, level) in self.series})


def build_figure(results: Dict[PatternLevel, CellResult]) -> FigureData:
    """Assemble Figure 7/8 data from a five-configuration series."""
    any_result = next(iter(results.values()))
    spec = APPS[any_result.app]
    groups = [
        f"local-browser",
        f"local-{spec.writer_group}",
        f"remote-browser",
        f"remote-{spec.writer_group}",
    ]
    figure = FigureData(app=any_result.app, groups=groups)
    for level, result in results.items():
        if result.label:
            figure.labels[PatternLevel(level)] = result.label
        for group in groups:
            figure.series[(group, PatternLevel(level))] = result.session_mean(group)
    return figure


def figure_to_csv(figure: FigureData) -> str:
    """CSV export: group,configuration,session_mean_ms."""
    lines = ["group,configuration,session_mean_ms"]
    for group in figure.groups:
        for level in figure.levels:
            value = figure.value(group, level)
            if value != value:  # NaN
                continue
            lines.append(
                f"{group},{figure.bar_label(level).replace(',', ';')},{value:.2f}"
            )
    return "\n".join(lines) + "\n"


def render_figure(figure: FigureData, bar_width: int = 50) -> str:
    """ASCII bar chart in the paper's grouping (groups on the x-axis)."""
    number, caption = PAPER_FIGURES.get(figure.app, (0, figure.app))
    lines = [f"Figure {number}. {caption}."]
    values = [v for v in figure.series.values() if v == v]  # drop NaN
    maximum = max(values) if values else 1.0
    for group in figure.groups:
        lines.append(f"\n{group}")
        for level in figure.levels:
            value = figure.value(group, level)
            if value != value:
                continue
            bar = "#" * max(1, int(round(bar_width * value / maximum)))
            lines.append(f"  {figure.bar_label(level):28s} {value:7.0f} ms |{bar}")
    return "\n".join(lines)
