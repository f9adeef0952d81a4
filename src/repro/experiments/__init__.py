"""The paper's evaluation: configurations, runner, tables, figures."""

from . import calibration
from .figures import FigureData, build_figure, figure_to_csv, render_figure
from .parallel import default_jobs, run_cells
from .progress import ProgressReporter
from .runner import (
    APPS,
    AppSpec,
    CellResult,
    RunSpec,
    run_configuration,
    run_series,
)
from .tables import ResponseTimeTable, TableCell, build_table, render_table, table_to_csv

__all__ = [
    "calibration",
    "FigureData",
    "build_figure",
    "render_figure",
    "figure_to_csv",
    "APPS",
    "AppSpec",
    "RunSpec",
    "run_configuration",
    "run_series",
    "CellResult",
    "default_jobs",
    "run_cells",
    "ProgressReporter",
    "ResponseTimeTable",
    "TableCell",
    "build_table",
    "render_table",
    "table_to_csv",
]
