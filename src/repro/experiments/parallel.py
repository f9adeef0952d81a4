"""Parallel experiment execution: a process-pool fan-out over cells.

The paper's evaluation grid is a set of independent *cells* — one
(application, :class:`PatternLevel`) pair each.  RAFDA-style separation
of application logic from distribution policy means a cell shares no
state with any other: every run builds its own seeded
:class:`~repro.simnet.kernel.Environment`, database, testbed and client
population from scratch.  That makes the sweep embarrassingly parallel,
and this module exploits it:

* each cell runs in its own worker process (``ProcessPoolExecutor``);
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
from typing import Dict, Iterable, Optional, Tuple

from ..core.patterns import PatternLevel
from .progress import ProgressReporter
from .runner import CellResult, RunSpec, run_cell

__all__ = ["CellResult", "default_jobs", "run_cells"]


def default_jobs() -> int:
    """Worker-count default: one per CPU."""
    return max(1, os.cpu_count() or 1)


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
    cell; the pool ships ``(app, level, spec)``.  ``jobs=None`` uses one
    worker per CPU; ``jobs=1`` runs the cells in the current process (no
    pool, no pickling) and drops each result's in-process fields all the
    same, so the outcome is identical.  The returned dict is keyed in
    sorted (app, level) order regardless of completion order.
    """
    spec = replace(spec or RunSpec(), **options)
    keys = [(app, PatternLevel(level)) for app, level in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cells in {keys!r}")
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    results: Dict[Tuple[str, PatternLevel], CellResult] = {}

    def done(key, result):
        results[key] = result
        if progress is not None:
            progress.cell_done(*key, result.wall_seconds)

    if jobs == 1 or len(keys) <= 1:
        for key in keys:
            done(key, run_cell(*key, spec))
    else:
        # Imported here: the pool pulls in multiprocessing, socket, logging
        # and subprocess, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=min(jobs, len(keys))) as pool:
            futures = {pool.submit(run_cell, *key, spec): key for key in keys}
            for future in as_completed(futures):
                done(futures[future], future.result())
    return {
        key: results[key]
        for key in sorted(results, key=lambda k: (k[0], int(k[1])))
    }
