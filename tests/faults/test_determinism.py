"""The ISSUE's regression contract: fault machinery never perturbs
fault-free runs, and fault runs are exactly as deterministic as clean
ones — same results for any worker count and for repeated seeds."""

from repro.core.patterns import PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_configuration, run_series
from repro.faults.report import availability_row
from repro.faults.scenarios import scenario
from repro.faults.schedule import FaultSchedule

DURATION_MS = 15_000.0
WARMUP_MS = 3_000.0
LEVELS = [PatternLevel.CENTRALIZED, PatternLevel.STATEFUL_CACHING]


def _workload():
    return default_workload(DURATION_MS, WARMUP_MS)


def _scenario():
    return scenario("edge-partition", DURATION_MS, WARMUP_MS)


def _row(result):
    return availability_row(result.measurements["metrics"])


def test_empty_schedule_reproduces_the_fault_free_run_exactly():
    """An empty FaultSchedule installs no processes and draws no random
    numbers, so the monitor state matches a run with no schedule at all."""
    baseline = run_configuration(
        "petstore", PatternLevel.STATEFUL_CACHING, workload=_workload(), seed=7
    )
    with_empty = run_configuration(
        "petstore",
        PatternLevel.STATEFUL_CACHING,
        workload=_workload(),
        seed=7,
        faults=FaultSchedule(),
    )
    assert with_empty.fault_injector is None
    assert with_empty.monitor.to_state() == baseline.monitor.to_state()
    assert _row(with_empty) == _row(baseline)


def test_fault_free_resilience_snapshot_is_all_zero():
    result = run_configuration(
        "petstore", PatternLevel.STATEFUL_CACHING, workload=_workload(), seed=7
    )
    snapshot = _row(result)
    assert snapshot.pop("requests") > 0
    assert snapshot.pop("staleness_ms") == {}
    assert all(value == 0 for value in snapshot.values())


def test_fault_run_is_identical_serial_vs_parallel():
    serial = run_series(
        "petstore", levels=LEVELS, workload=_workload(), seed=7, faults=_scenario()
    )
    parallel = run_series(
        "petstore",
        levels=LEVELS,
        workload=_workload(),
        seed=7,
        faults=_scenario(),
        jobs=2,
    )
    for level in LEVELS:
        assert serial[level].monitor.to_state() == parallel[level].measurements["whole_run"]
        assert _row(serial[level]) == _row(parallel[level])


def test_fault_run_is_repeatable_for_the_same_seed():
    first = run_series(
        "petstore", levels=LEVELS, workload=_workload(), seed=11, faults=_scenario()
    )
    second = run_series(
        "petstore", levels=LEVELS, workload=_workload(), seed=11, faults=_scenario()
    )
    for level in LEVELS:
        assert first[level].monitor.to_state() == second[level].monitor.to_state()
        assert _row(first[level]) == _row(second[level])
    # The scenario must actually bite, or the regression proves nothing.
    disturbed = _row(first[PatternLevel.STATEFUL_CACHING])
    assert (
        disturbed["errors"] > 0
        or disturbed["rmi_retries"] > 0
        or disturbed["failovers"] > 0
    )
