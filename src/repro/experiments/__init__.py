"""The paper's evaluation: configurations, runner, tables, figures."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "calibration": "calibration",
    "FigureData": "figures",
    "build_figure": "figures",
    "render_figure": "figures",
    "figure_to_csv": "figures",
    "APPS": "runner",
    "AppSpec": "runner",
    "RunSpec": "runner",
    "run_configuration": "runner",
    "run_series": "runner",
    "CellResult": "runner",
    "default_jobs": "parallel",
    "run_cells": "parallel",
    "ProgressReporter": "progress",
    "ResponseTimeTable": "tables",
    "TableCell": "tables",
    "build_table": "tables",
    "render_table": "tables",
    "table_to_csv": "tables",
})
