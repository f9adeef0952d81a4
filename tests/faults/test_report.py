"""The availability report: the row read from metrics, table assembly,
rendering."""

import json
from types import SimpleNamespace

from repro.core.patterns import PatternLevel
from repro.faults.report import (
    availability_row,
    availability_to_json,
    build_availability_table,
    render_availability_table,
)
from repro.faults.stats import ResilienceStats
from repro.obs.metrics import MetricsRegistry, collect_system_metrics
from tests.helpers import tiny_system


def _metrics(requests=100, errors=0, staleness_ms=None):
    """A cell's metrics snapshot holding just what the row reads."""
    return {
        "counters": {
            "workload.requests": requests,
            "workload.errors": errors,
            "workload.failovers": 0,
            "workload.sessions_dropped": 0,
        },
        "gauges": {
            f"resilience.staleness_ms.{server}": value
            for server, value in (staleness_ms or {}).items()
        },
    }


def _series(snapshots):
    return {
        level: SimpleNamespace(measurements={"metrics": metrics}, label=None, topology=None)
        for level, metrics in zip(PatternLevel, snapshots)
    }


def test_availability_row_of_a_clean_system_is_all_zero():
    env, system = tiny_system()
    state = collect_system_metrics(MetricsRegistry(), system).to_state()
    # A tiny system has no load generator: its workload counters are 0.
    state["counters"].update(_metrics(requests=0)["counters"])
    row = availability_row(state)
    assert row["requests"] == 0
    assert row["errors"] == 0
    for name in ResilienceStats.COUNTERS:
        assert row[name] == 0
    assert row["staleness_ms"] == {}
    assert "cluster" not in row and "method_cache" not in row


def test_build_table_orders_rows_by_level():
    rows = [_metrics(requests=10 * (index + 1)) for index in range(len(PatternLevel))]
    table = build_availability_table("petstore", _series(rows), scenario="edge-partition")
    assert table.app == "petstore"
    assert table.scenario == "edge-partition"
    assert [int(level) for level, _ in table.rows] == sorted(
        int(level) for level in PatternLevel
    )


def test_render_reports_availability_percentage():
    rows = [_metrics() for _ in PatternLevel]
    rows[0] = _metrics(requests=75, errors=25)  # 75% available
    text = render_availability_table(
        build_availability_table("petstore", _series(rows), scenario="edge-partition")
    )
    assert "Availability under fault scenario 'edge-partition' (petstore)" in text
    assert "75.00" in text
    assert "100.00" in text  # untouched configurations
    assert "avail%" in text


def test_render_sums_staleness_in_seconds():
    rows = [_metrics() for _ in PatternLevel]
    rows[-1] = _metrics(staleness_ms={"edge1": 1500.0, "edge2": 750.0})
    text = render_availability_table(
        build_availability_table("petstore", _series(rows))
    )
    assert "2.250" in text


def test_availability_json_is_canonical():
    rows = [_metrics(requests=5) for _ in PatternLevel]
    table = build_availability_table("rubis", _series(rows), scenario="flaky-wan")
    payload = json.loads(availability_to_json([table]))
    assert payload["rubis"]["scenario"] == "flaky-wan"
    configurations = payload["rubis"]["configurations"]
    assert set(configurations) == {f"L{int(level)}" for level in PatternLevel}
    assert configurations["L1"]["requests"] == 5
    assert availability_to_json([table]).endswith("\n")
