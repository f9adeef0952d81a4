"""Tests for the parallel experiment execution layer.

The load-bearing property: a sweep's tables and figures are
byte-identical whether the cells ran serially in one process or fanned
out across a worker pool — whatever the worker count and completion
order.
"""

import dataclasses
import io
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.figures import build_figure, figure_to_csv, render_figure
from repro.experiments.parallel import CellResult, default_jobs, fan_out, run_cells
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import IN_PROCESS_FIELDS, RunSpec, run_configuration, run_series
from repro.experiments.tables import build_table, render_table, table_to_csv
from repro.faults.scenarios import scenario

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
LEVELS = [PatternLevel.CENTRALIZED, PatternLevel.STATEFUL_CACHING]


@pytest.fixture(scope="module")
def serial_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=1)


@pytest.fixture(scope="module")
def parallel_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=2)


# ---------------------------------------------------------------------------
# Determinism: serial and parallel sweeps are indistinguishable downstream
# ---------------------------------------------------------------------------


def test_parallel_series_returns_cell_results(parallel_series):
    assert set(parallel_series) == set(LEVELS)
    for level, result in parallel_series.items():
        assert isinstance(result, CellResult)
        assert result.app == "rubis"
        assert result.level == level
        assert result.wall_seconds > 0
        assert result.total_requests > 0


def test_serial_and_parallel_results_are_equal(serial_series, parallel_series):
    """Whole results, not only what the tables read off them.  (Host
    timings and the in-process fields are not compared.)"""
    assert serial_series == parallel_series
    for result in list(serial_series.values()) + list(parallel_series.values()):
        assert all(getattr(result, name) is None for name in IN_PROCESS_FIELDS)
    observed = run_series(
        "rubis", levels=LEVELS[:1], workload=FAST, seed=21, jobs=1,
        with_spans=True, obs_interval_ms=5_000.0,
    )
    pooled = run_cells(
        [("rubis", LEVELS[0]), ("petstore", LEVELS[0])], workload=FAST, seed=21, jobs=2,
        with_spans=True, obs_interval_ms=5_000.0,
    )
    assert observed[LEVELS[0]] == pooled[("rubis", LEVELS[0])]
    assert observed[LEVELS[0]].measurements["spans"]["spans"]
    assert observed[LEVELS[0]] != serial_series[LEVELS[0]]


def test_serial_and_parallel_monitor_tables_identical(serial_series, parallel_series):
    for level in LEVELS:
        assert (
            serial_series[level].monitor.table()
            == parallel_series[level].monitor.table()
        ), level


def test_serial_and_parallel_rendered_output_identical(serial_series, parallel_series):
    serial_table = build_table(serial_series)
    parallel_table = build_table(parallel_series)
    assert render_table(serial_table) == render_table(parallel_table)
    assert table_to_csv(serial_table) == table_to_csv(parallel_table)
    serial_figure = build_figure(serial_series)
    parallel_figure = build_figure(parallel_series)
    assert render_figure(serial_figure) == render_figure(parallel_figure)
    assert figure_to_csv(serial_figure) == figure_to_csv(parallel_figure)


def test_result_order_is_canonical_regardless_of_completion(parallel_series):
    assert list(parallel_series) == LEVELS
    results = run_cells(
        [("rubis", LEVELS[1]), ("rubis", LEVELS[0])],
        workload=FAST,
        seed=21,
        jobs=1,
    )
    assert list(results) == [("rubis", LEVELS[0]), ("rubis", LEVELS[1])]


# ---------------------------------------------------------------------------
# CellResult: one result, live where it ran, plain data once pickled
# ---------------------------------------------------------------------------


def test_pickling_loses_exactly_the_in_process_fields():
    result = run_configuration(
        "rubis", LEVELS[1], workload=FAST, seed=21,
        with_spans=True, obs_interval_ms=5_000.0,
        faults=scenario("edge-crash", FAST.duration_ms, FAST.warmup_ms),
    )
    assert IN_PROCESS_FIELDS == ("system", "generator", "store", "fault_injector")
    for name in IN_PROCESS_FIELDS:
        assert getattr(result, name) is not None, name
    assert result.store is result.generator.store
    assert result.measurements == result.store.to_state()
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result
    for field in dataclasses.fields(CellResult):
        if field.name in IN_PROCESS_FIELDS:
            assert getattr(copy, field.name) is None, field.name
        elif field.name == "_monitor":
            assert copy.monitor.to_state() == result.monitor.to_state()
        else:
            assert getattr(copy, field.name) == getattr(result, field.name), field.name
    # from_experiment is the same drop without the pickle.
    condensed = CellResult.from_experiment(result)
    assert condensed == result
    assert all(getattr(condensed, name) is None for name in IN_PROCESS_FIELDS)
    assert condensed.wall_seconds == result.wall_seconds
    assert condensed.cpu_seconds == result.cpu_seconds > 0
    assert result.system is not None  # the original keeps its deployment


def test_cell_result_pickle_roundtrip(parallel_series):
    result = parallel_series[LEVELS[0]]
    copy = pickle.loads(pickle.dumps(result))
    assert copy.app == result.app
    assert copy.level == result.level
    assert copy.monitor.table() == result.monitor.table()
    for group in result.groups():
        assert copy.session_mean(group) == result.session_mean(group)


def test_cell_result_matches_experiment_result_surface(
    serial_series, parallel_series
):
    serial = serial_series[LEVELS[0]]
    parallel = parallel_series[LEVELS[0]]
    assert parallel.groups() == serial.monitor.groups()
    for group in serial.monitor.groups():
        assert parallel.session_mean(group) == serial.session_mean(group)
        for page in serial.monitor.pages(group):
            assert parallel.mean(group, page) == serial.mean(group, page)


def test_run_spec_is_picklable():
    """What the pool ships per cell: ``(app, level, spec)``."""
    task = ("rubis", PatternLevel.CENTRALIZED, RunSpec(workload=FAST, seed=21))
    copy = pickle.loads(pickle.dumps(task))
    assert copy == task


def test_run_cells_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        run_cells(
            [("rubis", PatternLevel.CENTRALIZED), ("rubis", 1)],
            workload=FAST,
            jobs=1,
        )


def test_run_cells_spans_applications():
    results = run_cells(
        [("rubis", PatternLevel.CENTRALIZED), ("petstore", PatternLevel.CENTRALIZED)],
        workload=FAST,
        seed=21,
        jobs=2,
    )
    assert list(results) == [
        ("petstore", PatternLevel.CENTRALIZED),
        ("rubis", PatternLevel.CENTRALIZED),
    ]
    for result in results.values():
        assert result.total_requests > 0


def test_with_spans_ships_the_span_table_not_the_recorder():
    results = run_cells(
        [("rubis", PatternLevel.REMOTE_FACADE)],
        workload=FAST,
        seed=21,
        with_spans=True,
        jobs=1,
    )
    result = results[("rubis", PatternLevel.REMOTE_FACADE)]
    assert result.system is None
    state = result.measurements["spans"]
    spans = state["spans"]
    assert spans and state["dropped"] == 0
    # Edge-to-main RMI crosses the WAN at the façade level.
    assert any(span["kind"] == "rmi" and span["wide_area"] for span in spans)


def test_a_serial_run_does_not_import_the_process_pool():
    """``import repro`` (and the parallel module itself) leaves the pool's
    stack unloaded; only ``run_cells`` with ``jobs > 1`` imports it."""
    probe = (
        "import sys, repro, repro.experiments.parallel; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    source = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(source)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_default_jobs_positive():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------


def test_progress_reporter_counts_and_prints():
    stream = io.StringIO()
    progress = ProgressReporter(2, stream=stream, label="cells")
    progress.cell_done("rubis", PatternLevel.CENTRALIZED, 1.25)
    assert not progress.finished
    progress.done("ablate_stub_caching", 0.5)
    assert progress.finished
    lines = stream.getvalue().strip().splitlines()
    assert lines[0].startswith("[1/2 cells] rubis level 1 done in 1.2")
    assert "[2/2 cells] ablate_stub_caching" in lines[1]


def test_run_series_reports_progress_in_both_modes():
    """The serial loop, ``run_cells`` in-process, and the pool."""
    options = dict(workload=FAST, seed=21)
    cells = [("rubis", level) for level in LEVELS]
    sweeps = [
        lambda progress: run_series(
            "rubis", levels=LEVELS, jobs=1, progress=progress, **options
        ),
        lambda progress: run_cells(cells, jobs=1, progress=progress, **options),
        lambda progress: run_series(
            "rubis", levels=LEVELS, jobs=2, progress=progress, **options
        ),
    ]
    for sweep in sweeps:
        stream = io.StringIO()
        progress = ProgressReporter(len(LEVELS), stream=stream)
        sweep(progress)
        assert progress.completed == len(LEVELS)
        assert stream.getvalue().count("done in") == len(LEVELS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fan_out_reports_every_task_once_serially_or_pooled(jobs):
    """The one fan-out the sweep and the ablations share."""
    seen = []
    fan_out(pow, [(2, 3), (3, 2), (5, 0)], jobs, lambda task, result: seen.append((task, result)))
    assert sorted(seen) == [((2, 3), 8), ((3, 2), 9), ((5, 0), 1)]
