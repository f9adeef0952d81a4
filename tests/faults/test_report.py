"""The availability report: snapshotting, table assembly, rendering."""

import json
from types import SimpleNamespace

from repro.core.patterns import PatternLevel
from repro.faults.report import (
    availability_to_json,
    build_availability_table,
    collect_resilience,
    render_availability_table,
)
from tests.helpers import tiny_system


def _row(requests=100, errors=0, **extra):
    row = {
        "requests": requests,
        "errors": errors,
        "failovers": 0,
        "rmi_retries": 0,
        "rmi_timeouts": 0,
        "jms_redeliveries": 0,
        "jms_dead_lettered": 0,
        "sync_push_failures": 0,
        "dropped_updates": 0,
        "pool_refusals": 0,
        "server_crashes": 0,
        "staleness_ms": {},
    }
    row.update(extra)
    return row


def _series(rows):
    return {
        level: SimpleNamespace(resilience=row, label=None, topology=None)
        for level, row in zip(PatternLevel, rows)
    }


def test_collect_resilience_on_a_clean_system_is_all_zero():
    env, system = tiny_system()
    data = collect_resilience(system)
    assert data["requests"] == 0
    assert data["errors"] == 0
    assert data["rmi_retries"] == 0
    assert data["staleness_ms"] == {}


def test_build_table_orders_rows_by_level():
    rows = [_row(requests=10 * (index + 1)) for index in range(len(PatternLevel))]
    table = build_availability_table("petstore", _series(rows), scenario="edge-partition")
    assert table.app == "petstore"
    assert table.scenario == "edge-partition"
    assert [int(level) for level, _ in table.rows] == sorted(
        int(level) for level in PatternLevel
    )


def test_render_reports_availability_percentage():
    rows = [_row() for _ in PatternLevel]
    rows[0] = _row(requests=75, errors=25)  # 75% available
    text = render_availability_table(
        build_availability_table("petstore", _series(rows), scenario="edge-partition")
    )
    assert "Availability under fault scenario 'edge-partition' (petstore)" in text
    assert "75.00" in text
    assert "100.00" in text  # untouched configurations
    assert "avail%" in text


def test_render_sums_staleness_in_seconds():
    rows = [_row() for _ in PatternLevel]
    rows[-1] = _row(staleness_ms={"edge1": 1500.0, "edge2": 750.0})
    text = render_availability_table(
        build_availability_table("petstore", _series(rows))
    )
    assert "2.250" in text


def test_availability_json_is_canonical():
    rows = [_row(requests=5) for _ in PatternLevel]
    table = build_availability_table("rubis", _series(rows), scenario="flaky-wan")
    payload = json.loads(availability_to_json([table]))
    assert payload["rubis"]["scenario"] == "flaky-wan"
    configurations = payload["rubis"]["configurations"]
    assert set(configurations) == {f"L{int(level)}" for level in PatternLevel}
    assert configurations["L1"]["requests"] == 5
    assert availability_to_json([table]).endswith("\n")
