"""Parallel experiment execution: a process-pool fan-out over cells.

The paper's evaluation grid is a set of independent *cells* — one
(application, :class:`PatternLevel`) pair each.  RAFDA-style separation
of application logic from distribution policy means a cell shares no
state with any other: every run builds its own seeded
:class:`~repro.simnet.kernel.Environment`, database, testbed and client
population from scratch.  That makes the sweep embarrassingly parallel,
and this module exploits it:

* each cell runs in its own worker process (``ProcessPoolExecutor``,
  through :func:`fan_out`, which the ablations share);
* the worker ships back a :class:`~repro.experiments.runner.CellResult`,
  which pickles as plain data — the measurement store's state, the span
  table, snapshots — never live simulation objects;
* the parent keys results in canonical (app, level) order, so tables
  and figures are **byte-identical for any worker count and any
  completion order**.

Determinism rests on two facts: every cell is seeded independently from
the same master seed (so a cell's observations do not depend on which
process ran it), and :meth:`~repro.obs.store.MeasurementStore.to_state`
emits every section in sorted order (so reading it back does not depend
on arrival order).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.patterns import PatternLevel
from .progress import ProgressReporter
from .runner import CellResult, RunSpec, run_cell

__all__ = ["CellResult", "default_jobs", "fan_out", "run_cells"]


def default_jobs() -> int:
    """Worker-count default: one per CPU."""
    return max(1, os.cpu_count() or 1)


def fan_out(
    run: Callable,
    tasks: List[tuple],
    jobs: Optional[int],
    done: Callable[[tuple, object], None],
) -> None:
    """Call ``run(*task)`` for every task and ``done(task, result)`` as
    each finishes.

    ``jobs=None`` uses one worker per CPU; ``jobs=1`` (or a single task)
    runs the tasks in the current process, in order, with no pool.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            done(task, run(*task))
        return
    # Imported here: the pool pulls in multiprocessing, socket, logging
    # and subprocess, which a serial run never uses.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {pool.submit(run, *task): task for task in tasks}
        for future in as_completed(futures):
            done(futures[future], future.result())


def run_cells(
    cells: Iterable[Tuple[str, PatternLevel]],
    spec: Optional[RunSpec] = None,
    *,
    jobs: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
    **options,
) -> Dict[Tuple[str, PatternLevel], CellResult]:
    """Run every (app, level) cell, fanning out across ``jobs`` processes.

    ``spec`` (or its keyword form, see :class:`RunSpec`) applies to every
    cell; the pool ships ``(app, level, spec)``.  ``jobs`` as in
    :func:`fan_out`; a serial run drops each result's in-process fields
    all the same, so the outcome is identical.  The returned dict is
    keyed in sorted (app, level) order regardless of completion order.
    """
    spec = replace(spec or RunSpec(), **options)
    keys = [(app, PatternLevel(level)) for app, level in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cells in {keys!r}")
    results: Dict[Tuple[str, PatternLevel], CellResult] = {}

    def done(task, result):
        key = task[:2]
        results[key] = result
        if progress is not None:
            progress.cell_done(*key, result.wall_seconds)

    fan_out(run_cell, [(*key, spec) for key in keys], jobs, done)
    return {
        key: results[key]
        for key in sorted(results, key=lambda k: (k[0], int(k[1])))
    }
