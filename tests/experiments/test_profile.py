"""Tests for cProfile instrumentation (repro.experiments.profile)."""

import io

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.profile import (
    _subsystem_of,
    dump_cell_profile,
    format_attribution,
    format_profile,
    profile_call,
    subsystem_attribution,
)
from repro.experiments.runner import run_series

TINY = calibration.default_workload(duration_ms=6_000.0, warmup_ms=1_000.0)


def test_profile_call_returns_result_and_stats():
    result, stats = profile_call(sorted, [3, 1, 2])
    assert result == [1, 2, 3]
    assert stats.stats  # at least the sorted() frame was observed


def test_profile_call_propagates_exceptions():
    with pytest.raises(ZeroDivisionError):
        profile_call(lambda: 1 / 0)


def test_subsystem_of_mapping():
    assert _subsystem_of("/x/src/repro/simnet/kernel.py") == "simnet"
    assert _subsystem_of("/x/src/repro/rdbms/executor.py") == "rdbms"
    assert _subsystem_of("/x/src/repro/experiments.py") == "experiments"
    assert _subsystem_of("<built-in>") == "interpreter"
    assert _subsystem_of("~") == "interpreter"
    assert _subsystem_of("/usr/lib/python3/heapq.py") == "stdlib"


def test_attribution_buckets_and_formatting():
    _result, stats = profile_call(sorted, list(range(100)))
    attribution = subsystem_attribution(stats)
    assert attribution  # something ran
    totals = [bucket["tottime"] for bucket in attribution.values()]
    assert totals == sorted(totals, reverse=True)
    text = format_attribution(attribution)
    assert "subsystem self-time attribution:" in text
    assert format_profile(stats, limit=3)


def test_dump_cell_profile_writes_header_and_attribution():
    _result, stats = profile_call(sorted, [2, 1])
    stream = io.StringIO()
    dump_cell_profile("petstore L1", stats, stream, limit=5)
    output = stream.getvalue()
    assert "== profile: petstore L1 ==" in output
    assert "subsystem self-time attribution:" in output


def test_run_series_profile_results_identical(capsys):
    """profile=True must change stderr output only, never the results."""
    levels = [PatternLevel.CENTRALIZED]
    plain = run_series("petstore", levels=levels, workload=TINY, seed=7)
    profiled = run_series(
        "petstore", levels=levels, workload=TINY, seed=7, profile=True
    )
    captured = capsys.readouterr()
    assert "== profile: petstore L1 ==" in captured.err
    assert captured.out == ""
    level = PatternLevel.CENTRALIZED
    assert profiled[level].monitor.session_mean("browser") == pytest.approx(
        plain[level].monitor.session_mean("browser")
    )
    for page in plain[level].monitor.pages("browser"):
        assert profiled[level].mean("browser", page) == plain[level].mean(
            "browser", page
        )


def test_run_series_profile_forces_serial_with_warning(capsys):
    """profile + jobs>1 downgrades to serial with an explicit warning."""
    levels = [PatternLevel.CENTRALIZED]
    results = run_series(
        "petstore", levels=levels, workload=TINY, seed=7, jobs=2, profile=True
    )
    captured = capsys.readouterr()
    assert "forcing jobs=1" in captured.err
    assert "requested 2" in captured.err
    # Same result as any other sweep: no live deployment attached.
    from repro.experiments.runner import CellResult

    result = results[PatternLevel.CENTRALIZED]
    assert isinstance(result, CellResult)
    assert result.system is None and result.generator is None


def test_warn_forced_serial_message():
    from repro.experiments.profile import warn_forced_serial

    stream = io.StringIO()
    warn_forced_serial(4, stream)
    message = stream.getvalue()
    assert "cProfile cannot follow worker processes" in message
    assert "requested 4" in message
