"""Smoke benchmark for the parallel experiment runner.

A short sweep (20 simulated seconds, two configurations) run both
serially and through the worker pool: asserts the rendered table is
byte-identical, and reports both wall times.  Fast enough for the CI
smoke job.
"""

from __future__ import annotations

import time

from repro.core.patterns import PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_series
from repro.experiments.tables import build_table, render_table

SMOKE_WORKLOAD = default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
SMOKE_LEVELS = [PatternLevel.CENTRALIZED, PatternLevel.QUERY_CACHING]


def test_parallel_smoke_identical_tables(benchmark):
    def sweep_both():
        started = time.perf_counter()
        serial = run_series(
            "rubis", levels=SMOKE_LEVELS, workload=SMOKE_WORKLOAD, seed=2003, jobs=1
        )
        serial_wall = time.perf_counter() - started
        started = time.perf_counter()
        parallel = run_series(
            "rubis", levels=SMOKE_LEVELS, workload=SMOKE_WORKLOAD, seed=2003, jobs=2
        )
        parallel_wall = time.perf_counter() - started
        return serial, parallel, serial_wall, parallel_wall

    serial, parallel, serial_wall, parallel_wall = benchmark.pedantic(
        sweep_both, rounds=1, iterations=1
    )
    print(f"\nserial {serial_wall:.2f}s vs pool {parallel_wall:.2f}s "
          f"({len(SMOKE_LEVELS)} cells)")
    assert render_table(build_table(serial)) == render_table(build_table(parallel))
