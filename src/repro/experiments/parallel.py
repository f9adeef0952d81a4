"""Parallel experiment execution: a process-pool fan-out over cells.

The paper's evaluation grid is a set of independent *cells* — one
(application, :class:`PatternLevel`) pair each.  RAFDA-style separation
of application logic from distribution policy means a cell shares no
state with any other: every run builds its own seeded
:class:`~repro.simnet.kernel.Environment`, database, testbed and client
population from scratch.  That makes the sweep embarrassingly parallel,
and this module exploits it:

* each cell runs in its own worker process (``ProcessPoolExecutor``);
* the worker ships back a picklable :class:`CellResult` — serialized
  monitor state, a trace summary, and wall time — never live simulation
  objects;
* the parent merges results in canonical (app, level) order, so tables
  and figures are **byte-identical for any worker count and any
  completion order**.

Determinism rests on two facts: every cell is seeded independently from
the same master seed (so a cell's observations do not depend on which
process ran it), and :meth:`ResponseTimeMonitor.to_state` emits cells in
sorted order (so reconstruction does not depend on arrival order).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.patterns import PatternLevel
from ..simnet.monitor import ResponseTimeMonitor, TraceSummary
from .progress import ProgressReporter
from .runner import RunSpec, run_cell

__all__ = ["CellResult", "default_jobs", "run_cells"]


def default_jobs() -> int:
    """Worker-count default: one per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass
class CellResult:
    """Picklable outcome of one cell.

    Carries serialized monitor state instead of live simulation objects,
    plus enough derived data (request count, trace summary, wall time)
    for the tables, figures and benchmark reports.  Presents the same
    reporting surface as :class:`~repro.experiments.runner.ExperimentResult`
    (``app`` / ``level`` / ``monitor`` / ``mean`` / ``session_mean`` /
    ``groups``), so ``build_table`` and ``build_figure`` accept either.
    """

    app: str
    level: PatternLevel
    monitor_state: dict
    wall_seconds: float
    total_requests: int
    trace_summary: Optional[TraceSummary] = None
    # Observability snapshots (plain dicts, canonical key order): the
    # span table, the metrics registry, and the query-cache/replica
    # counters that previously died with the worker process.
    spans_state: Optional[dict] = None
    metrics_state: Optional[dict] = None
    series_state: Optional[dict] = None
    cache_stats: Optional[dict] = None
    # Canonical resilience snapshot (see repro.faults.report).
    resilience: Optional[dict] = None
    # Custom-policy row label and effective topology (see ExperimentResult).
    label: Optional[str] = None
    topology: Optional[dict] = None
    _monitor: Optional[ResponseTimeMonitor] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_experiment(cls, result) -> "CellResult":
        """Condense a live ``ExperimentResult`` into its picklable form."""
        return cls(
            app=result.app,
            level=PatternLevel(result.level),
            monitor_state=result.monitor.to_state(),
            wall_seconds=result.wall_seconds,
            total_requests=result.generator.total_requests(),
            trace_summary=result.trace_summary,
            spans_state=result.spans_state,
            metrics_state=result.metrics_state,
            series_state=result.series_state,
            cache_stats=result.cache_stats,
            resilience=result.resilience,
            label=result.label,
            topology=result.topology,
        )

    @property
    def monitor(self) -> ResponseTimeMonitor:
        """The reconstructed response-time monitor (cached)."""
        if self._monitor is None:
            self._monitor = ResponseTimeMonitor.from_state(self.monitor_state)
        return self._monitor

    def mean(self, group: str, page: str) -> float:
        return self.monitor.mean(group, page)

    def session_mean(self, group: str) -> float:
        return self.monitor.session_mean(group)

    def groups(self) -> List[str]:
        return self.monitor.groups()


def _run_cell(
    app: str, level: PatternLevel, spec: RunSpec, profile: bool = False
) -> CellResult:
    """Run one cell and serialize the outcome (the worker entry point)."""
    return CellResult.from_experiment(run_cell(app, level, spec, profile))


def run_cells(
    cells: Iterable[Tuple[str, PatternLevel]],
    spec: Optional[RunSpec] = None,
    *,
    jobs: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
    profile: bool = False,
    **options,
) -> Dict[Tuple[str, PatternLevel], CellResult]:
    """Run every (app, level) cell, fanning out across ``jobs`` processes.

    ``spec`` (or its keyword form, see :class:`RunSpec`) applies to every
    cell; the pool ships ``(app, level, spec)``.  ``jobs=None`` uses one
    worker per CPU; ``jobs=1`` runs the cells in the current process (no
    pool, no pickling overhead) but still returns :class:`CellResult`,
    so downstream output is identical.  ``profile=True`` profiles each
    cell (see :func:`~repro.experiments.runner.run_cell`) and forces one
    worker, with a stderr warning.  The returned dict is keyed in sorted
    (app, level) order regardless of completion order.
    """
    spec = replace(spec or RunSpec(), **options)
    keys = [(app, PatternLevel(level)) for app, level in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cells in {keys!r}")
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    if profile and jobs != 1:
        from .profile import warn_forced_serial

        warn_forced_serial(jobs, sys.stderr)
        jobs = 1
    results: Dict[Tuple[str, PatternLevel], CellResult] = {}

    def done(key, result):
        results[key] = result
        if progress is not None:
            progress.cell_done(*key, result.wall_seconds)

    if jobs == 1 or len(keys) <= 1:
        for key in keys:
            done(key, _run_cell(*key, spec, profile))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(keys))) as pool:
            futures = {pool.submit(_run_cell, *key, spec): key for key in keys}
            for future in as_completed(futures):
                done(futures[future], future.result())
    return {
        key: results[key]
        for key in sorted(results, key=lambda k: (k[0], int(k[1])))
    }
