"""Statement routing and scatter-gather merging for the sharded tier.

Pinning is the correctness-critical path: a statement routed to the
wrong shard silently reads an empty partition, so these tests pin the
classifier's behaviour for every statement shape the middleware emits.
"""

import pytest

from repro.rdbms.cluster import (
    ClusterRoutingError,
    DataTierPolicy,
    Partitioner,
    merge_results,
    route_statement,
)
from repro.rdbms.executor import ResultSet
from repro.rdbms.sql import SqlError

TIER = DataTierPolicy(
    shard_count=3,
    shard_tables=(("bids", "item_id"), ("items", "id")),
    global_tables=("regions",),
    replication_factor=1,
)
PART = Partitioner(TIER)


def _route(sql, params=()):
    return route_statement(sql, params, TIER, PART)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


def test_hash_partitioner_is_stable_and_in_range():
    # crc32 of the canonical string form: process-independent, so the
    # same key maps to the same shard in every worker of a --jobs N run.
    for value in (1, 7, "7", 12345, "abc"):
        first = PART.shard_of(value)
        assert first == PART.shard_of(value)
        assert 0 <= first < TIER.shard_count
    assert PART.shard_of(7) == PART.shard_of("7")


def test_single_shard_partitioner_always_zero():
    single = Partitioner(DataTierPolicy())
    assert single.shard_of(99) == 0


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_select_with_shard_key_equality_pins():
    route = _route("SELECT * FROM items WHERE id = ?", (7,))
    assert route.kind == "single"
    assert route.shard == PART.shard_of(7)
    assert not route.is_write


def test_select_on_foreign_shard_key_pins_too():
    route = _route("SELECT * FROM bids WHERE item_id = ?", (7,))
    assert route.kind == "single"
    # bids colocate with their item: same key value, same shard.
    assert route.shard == PART.shard_of(7)


def test_unpinned_select_scatters():
    route = _route("SELECT * FROM items WHERE quantity = ?", (0,))
    assert route.kind == "scatter"
    assert not route.is_write


def test_unbound_shard_key_parameter_scatters():
    # The key cannot be evaluated, so the statement pins nothing; the
    # executor reports the arity error when the statement runs.
    route = _route("SELECT * FROM items WHERE id = ?", ())
    assert route.kind == "scatter"


def test_shard_key_evaluation_bug_propagates(monkeypatch):
    # Only bad statements fall back to scatter: a fault in the evaluator
    # itself must not silently give up the pin.
    def broken(value):
        raise TypeError("evaluator bug")

    monkeypatch.setattr("repro.rdbms.cluster.sharding.value_slot", broken)
    with pytest.raises(TypeError, match="evaluator bug"):
        _route("SELECT * FROM items WHERE id = ?", (7,))


def test_global_table_read_routes_to_shard_zero():
    route = _route("SELECT * FROM regions WHERE id = ?", (1,))
    assert route.kind == "single"
    assert route.shard == 0
    assert route.sharded_tables == ()


def test_global_table_write_broadcasts():
    route = _route("UPDATE regions SET name = ? WHERE id = ?", ("x", 1))
    assert route.kind == "broadcast"
    assert route.is_write


def test_unpinned_write_on_sharded_table_broadcasts():
    route = _route(
        "UPDATE items SET quantity = ? WHERE end_date BETWEEN ? AND ?", (0, 0, 10)
    )
    assert route.kind == "broadcast"
    assert route.is_write


def test_insert_pins_by_shard_key_value():
    route = _route(
        "INSERT INTO items (id, name) VALUES (?, ?)", (42, "thing")
    )
    assert route.kind == "single"
    assert route.shard == PART.shard_of(42)
    assert route.is_write


def test_insert_without_shard_key_is_rejected():
    with pytest.raises(ClusterRoutingError):
        _route("INSERT INTO items (name) VALUES (?)", ("thing",))


def test_update_with_shard_key_pins():
    route = _route("UPDATE bids SET qty = ? WHERE qty = ? AND item_id = ?", (2, 1, 7))
    assert route.kind == "single"
    assert route.shard == PART.shard_of(7)
    assert route.is_write


# ---------------------------------------------------------------------------
# Scatter-gather merging
# ---------------------------------------------------------------------------


def _rs(rows, scanned=1):
    columns = list(rows[0]) if rows else []
    return ResultSet(columns=columns, rows=rows, rows_scanned=scanned)


def test_merge_concatenates_rows():
    merged = merge_results(
        "SELECT id FROM items WHERE quantity = ?",
        [_rs([{"id": 1}, {"id": 5}]), _rs([{"id": 9}]), _rs([])],
    )
    assert [row["id"] for row in merged.rows] == [1, 5, 9]  # shard order
    assert merged.columns == ["id"]
    assert merged.rows_scanned == 3


def test_merge_count_folds_across_shards():
    merged = merge_results(
        "SELECT COUNT(*) AS n FROM items",
        [_rs([{"n": 2}]), _rs([{"n": 0}]), _rs([{"n": 5}])],
    )
    assert merged.rows == [{"n": 7}] and merged.columns == ["n"]
    merged = merge_results("SELECT COUNT(*) FROM bids", [_rs([{"count(*)": 4}])])
    assert merged.rows == [{"count(*)": 4}]


def test_merge_count_of_no_rows_is_zero():
    merged = merge_results(
        "SELECT COUNT(*) AS n FROM items", [_rs([{"n": 0}]), _rs([{"n": 0}])]
    )
    assert merged.rows == [{"n": 0}]


def test_cross_shard_group_by_is_rejected():
    # GROUP BY is out of the dialect: no statement can ask for it.
    with pytest.raises(SqlError):
        merge_results(
            "SELECT category, COUNT(*) AS n FROM items GROUP BY category",
            [_rs([])],
        )


def test_merge_broadcast_write_totals_affected():
    first = ResultSet(columns=[], rows=[], rows_scanned=4, affected=2)
    second = ResultSet(columns=[], rows=[], rows_scanned=1, affected=1)
    merged = merge_results(
        "UPDATE items SET quantity = 0 WHERE end_date = 1", [first, second]
    )
    assert merged.affected == 3
    assert merged.rows_scanned == 5
