"""Render Tables 6 and 7: per-page mean response times per configuration.

The paper reports, for each of the five configurations, the local and
remote clients' mean response time on every page of the browser and
buyer/bidder sessions.  ``build_table`` collects that grid from a run
series; ``render_table`` prints it in the paper's layout (one Local row
and one Remote row per configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.patterns import PatternLevel, level_name
from .runner import APPS, CellResult

__all__ = ["TableCell", "ResponseTimeTable", "build_table", "render_table"]

PAPER_TABLES = {
    # (table number, paper caption) per application.
    "petstore": (6, "Average response times (in ms) for five Pet Store configurations"),
    "rubis": (7, "Average response times (in ms) for five RUBiS configurations"),
}


@dataclass
class TableCell:
    mean: float
    count: int


@dataclass
class ResponseTimeTable:
    """The full grid: (level, locality, page) -> cell."""

    app: str
    pages: List[str]
    writer_pages: List[str]
    cells: Dict[Tuple[PatternLevel, str, str], TableCell] = field(default_factory=dict)
    # Custom row labels (custom-policy runs); absent levels use level_name.
    labels: Dict[PatternLevel, str] = field(default_factory=dict)

    def row_label(self, level: PatternLevel) -> str:
        return self.labels.get(PatternLevel(level)) or level_name(level)

    def get(self, level: PatternLevel, locality: str, page: str) -> Optional[TableCell]:
        return self.cells.get((PatternLevel(level), locality, page))

    def mean(self, level: PatternLevel, locality: str, page: str) -> float:
        cell = self.get(level, locality, page)
        return cell.mean if cell else float("nan")

    @property
    def levels(self) -> List[PatternLevel]:
        return sorted({level for (level, _loc, _page) in self.cells})


def _merge_page_means(result: CellResult, locality: str, page: str) -> TableCell:
    """Combine the browser and writer observations of one page."""
    total = 0.0
    count = 0
    for group in result.monitor.groups():
        if not group.startswith(locality + "-"):
            continue
        stats = result.monitor.page_stats(group, page)
        total += stats.total
        count += stats.count
    return TableCell(mean=(total / count if count else float("nan")), count=count)


def build_table(results: Dict[PatternLevel, CellResult]) -> ResponseTimeTable:
    """Assemble the Table 6/7 grid from a five-configuration series."""
    any_result = next(iter(results.values()))
    spec = APPS[any_result.app]
    # Browser pages first, then the writer-only pages (paper layout).
    pages = list(spec.browser_pages) + [
        p for p in spec.writer_pages if p not in spec.browser_pages
    ]
    table = ResponseTimeTable(
        app=any_result.app, pages=pages, writer_pages=list(spec.writer_pages)
    )
    for level, result in results.items():
        if result.label:
            table.labels[PatternLevel(level)] = result.label
        for locality in ("local", "remote"):
            for page in pages:
                cell = _merge_page_means(result, locality, page)
                if cell.count:
                    table.cells[(PatternLevel(level), locality, page)] = cell
    return table


def table_to_csv(table: ResponseTimeTable) -> str:
    """CSV export: configuration,locality,page,mean_ms,samples."""
    from ..core.patterns import level_name

    lines = ["configuration,locality,page,mean_ms,samples"]
    for level in table.levels:
        for locality in ("local", "remote"):
            for page in table.pages:
                cell = table.get(level, locality, page)
                if cell is None:
                    continue
                name = table.row_label(level).replace(",", ";")
                lines.append(
                    f"{name},{locality},\"{page}\",{cell.mean:.2f},{cell.count}"
                )
    return "\n".join(lines) + "\n"


def render_table(table: ResponseTimeTable, width: int = 7) -> str:
    """Text rendering in the paper's layout."""
    number, caption = PAPER_TABLES.get(table.app, (0, table.app))
    lines = [f"Table {number}. {caption}."]
    header = f"{'Configuration':32s} {'Cl.':6s}" + "".join(
        f"{page[:width - 1]:>{width}s}" for page in table.pages
    )
    lines.append(header)
    lines.append("-" * len(header))
    for level in table.levels:
        for locality, label in (("local", "Local"), ("remote", "Remote")):
            name = table.row_label(level) if locality == "local" else ""
            row = f"{name:32s} {label:6s}"
            for page in table.pages:
                cell = table.get(level, locality, page)
                row += (
                    f"{cell.mean:>{width}.0f}" if cell else " " * (width - 1) + "-"
                )
            lines.append(row)
    return "\n".join(lines)
