"""Smoke benchmark for the golden tables and the parallel experiment runner.

The full two-app, five-level sweep (the data behind Tables 6/7 and
Figures 7/8) at 20 simulated seconds with a 5 s warm-up, seed 2003, run
both serially and through a two-worker pool.  Both renderings of every
table and figure must equal the checked-in goldens in
``benchmarks/golden/d20_w5_s2003`` byte for byte, so the test fails on
any change that moves a simulated number and on any dependence on the
worker count.  Both wall times are reported.  Fast enough for the CI
smoke job.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments.calibration import default_workload
from repro.experiments.figures import build_figure, render_figure
from repro.experiments.runner import run_series
from repro.experiments.tables import build_table, render_table

APPS = ("petstore", "rubis")
GOLDEN = Path(__file__).parent / "golden" / "d20_w5_s2003"
SMOKE_WORKLOAD = default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)


@pytest.fixture(scope="module")
def sweeps():
    walls, renderings = {}, {}
    for jobs in (1, 2):
        started = time.perf_counter()
        artifacts = {}
        for app in APPS:
            series = run_series(app, workload=SMOKE_WORKLOAD, seed=2003, jobs=jobs)
            artifacts[f"{app}.table"] = render_table(build_table(series))
            artifacts[f"{app}.figure"] = render_figure(build_figure(series))
        walls[jobs] = time.perf_counter() - started
        renderings[jobs] = artifacts
    print(f"\nserial {walls[1]:.2f}s vs pool {walls[2]:.2f}s")
    return renderings


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "artifact", [f"{app}.{kind}" for app in APPS for kind in ("table", "figure")]
)
def test_sweep_matches_golden(sweeps, jobs, artifact):
    golden = (GOLDEN / f"{artifact}.txt").read_text()
    assert sweeps[jobs][artifact] == golden, f"{artifact} (jobs={jobs}) diverged from {GOLDEN}"
