"""Tests for the cost-based planner: path choice, EXPLAIN, counters, caches."""

import pytest

from repro.rdbms.engine import Database
from repro.rdbms.lru import LruCache
from repro.rdbms.plan import AccessChoice, choose_path
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.stats import TableStats
from repro.rdbms.types import FLOAT, INTEGER, TEXT


@pytest.fixture
def db():
    database = Database("plans")
    database.create_table(
        TableSchema(
            "items",
            [
                Column("id", INTEGER),
                Column("name", TEXT),
                Column("price", FLOAT),
                Column("category", INTEGER),
            ],
            primary_key="id",
            indexes=["category", "price", "name"],
        )
    )
    for i in range(300):
        database.execute(
            "INSERT INTO items (id, name, price, category) VALUES (?, ?, ?, ?)",
            (i, f"gadget{i:03d}", float(i), i % 5),
        )
    return database


def _counters(db):
    e = db.executor
    return {
        "index": e.index_scans,
        "full": e.full_scans,
        "range": e.range_scans,
        "prefix": e.prefix_scans,
    }


def _delta(before, after):
    return {k: after[k] - before[k] for k in before}


# -- access-path choice -------------------------------------------------------

def test_range_predicate_uses_ordered_index(db):
    before = _counters(db)
    result = db.execute("SELECT id FROM items WHERE price >= ? AND price < ?", (10.0, 20.0))
    assert sorted(result.column("id")) == list(range(10, 20))
    assert result.used_index == "items.price"
    assert result.rows_scanned == 10
    assert _delta(before, _counters(db)) == {"index": 1, "full": 0, "range": 1, "prefix": 0}
    assert result.plan.root.op == "index-range"


def test_between_routes_through_range_index(db):
    result = db.execute("SELECT id FROM items WHERE price BETWEEN ? AND ?", (50.0, 59.0))
    assert sorted(result.column("id")) == list(range(50, 60))
    assert result.used_index == "items.price"
    assert result.plan.root.op == "index-range"


def test_between_nested_under_and_still_flattens(db):
    result = db.execute(
        "SELECT id FROM items WHERE category = ? AND price BETWEEN ? AND ?",
        (0, 0.0, 49.0),
    )
    assert sorted(result.column("id")) == [0, 5, 10, 15, 20, 25, 30, 35, 40, 45]
    # Either path is index-backed; the residual predicate keeps it exact.
    assert result.used_index in ("items.price", "items.category")


def test_prefix_like_uses_ordered_text_index(db):
    before = _counters(db)
    result = db.execute("SELECT id FROM items WHERE name LIKE ?", ("gadget00%",))
    assert sorted(result.column("id")) == list(range(10))
    assert result.used_index == "items.name"
    assert result.rows_scanned == 10
    assert _delta(before, _counters(db)) == {"index": 1, "full": 0, "range": 0, "prefix": 1}
    assert result.plan.root.op == "index-prefix"


def test_prefix_like_is_case_insensitive(db):
    result = db.execute("SELECT id FROM items WHERE name LIKE ?", ("GADGET00%",))
    assert sorted(result.column("id")) == list(range(10))
    assert result.used_index == "items.name"


def test_interior_wildcard_like_stays_full_scan(db):
    before = _counters(db)
    result = db.execute("SELECT id FROM items WHERE name LIKE ?", ("%42%",))
    assert result.used_index is None
    assert result.rows_scanned == 300
    assert _delta(before, _counters(db)) == {"index": 0, "full": 1, "range": 0, "prefix": 0}
    assert result.plan.root.op == "full-scan"


def test_text_column_never_serves_range_predicates(db):
    # name's ordered index is casefolded; a range over it must full-scan.
    result = db.execute("SELECT id FROM items WHERE name > ?", ("gadget100",))
    assert result.used_index is None
    assert result.plan.root.op == "full-scan"
    assert sorted(result.column("id")) == list(range(101, 300))


def test_equality_still_wins_on_empty_table():
    db = Database("empty")
    db.create_table(
        TableSchema(
            "t",
            [Column("id", INTEGER), Column("grp", INTEGER)],
            primary_key="id",
            indexes=["grp"],
        )
    )
    result = db.execute("SELECT id FROM t WHERE grp = ?", (1,))
    # Both candidates estimate zero cost; rank breaks the tie toward the
    # index probe, preserving the legacy rows_scanned floor of 1.
    assert result.used_index == "t.grp"
    assert result.rows_scanned == 1


def test_planner_picks_cheaper_of_eq_and_range(db):
    # category = 3 matches ~60 rows; price > 297 matches 2. Range wins.
    result = db.execute(
        "SELECT id FROM items WHERE category = ? AND price > ?", (3, 297.0)
    )
    assert result.used_index == "items.price"
    assert sorted(result.column("id")) == [298]
    # category = 3 matches ~60 rows; price > 5 matches ~294. Equality wins.
    result = db.execute(
        "SELECT id FROM items WHERE category = ? AND price > ?", (3, 5.0)
    )
    assert result.used_index == "items.category"


def test_force_full_scans_knob(db):
    db.executor.force_full_scans = True
    result = db.execute("SELECT id FROM items WHERE category = ?", (1,))
    assert result.used_index is None
    assert result.rows_scanned == 300
    assert result.plan.root.op == "full-scan"
    db.executor.force_full_scans = False
    result = db.execute("SELECT id FROM items WHERE category = ?", (1,))
    assert result.used_index == "items.category"


def test_update_and_delete_route_through_planner(db):
    result = db.execute("UPDATE items SET category = ? WHERE price BETWEEN ? AND ?", (9, 10.0, 12.0))
    assert result.affected == 3
    assert result.used_index == "items.price"
    assert result.plan.statement_kind == "update"
    result = db.execute("DELETE FROM items WHERE price > ?", (296.5,))
    assert result.affected == 3
    assert result.used_index == "items.price"
    assert result.plan.statement_kind == "delete"


# -- EXPLAIN ------------------------------------------------------------------

def test_explain_renders_chosen_and_rejected_paths(db):
    plan = db.explain("SELECT id FROM items WHERE price < ?", (5.0,))
    text = plan.render()
    assert "QUERY PLAN (select)" in text
    assert "IndexRange items" in text
    assert "rejected: FullScan items" in text
    assert "est_blocks=" in text and "est_records=" in text


def test_explain_does_not_execute_or_bump_counters(db):
    before = _counters(db)
    rows_before = len(db.execute("SELECT id FROM items").rows)
    _counters(db)  # the SELECT above bumped full_scans; resample baseline
    before = _counters(db)
    db.explain("SELECT id FROM items WHERE category = ?", (1,))
    db.explain("DELETE FROM items WHERE price > ?", (100.0,))
    assert _delta(before, _counters(db)) == {"index": 0, "full": 0, "range": 0, "prefix": 0}
    assert len(db.execute("SELECT id FROM items").rows) == rows_before


def test_explain_join_builds_nested_loop_tree(db):
    db.create_table(
        TableSchema(
            "cats",
            [Column("id", INTEGER), Column("label", TEXT)],
            primary_key="id",
        )
    )
    for i in range(5):
        db.execute("INSERT INTO cats (id, label) VALUES (?, ?)", (i, f"c{i}"))
    plan = db.explain(
        "SELECT items.id, c.label FROM items JOIN cats c ON items.category = c.id "
        "WHERE items.category = ?",
        (2,),
    )
    assert plan.root.op == "nested-loop-join"
    leaf_ops = [node.op for node in plan.access_paths()]
    assert "index-eq" in leaf_ops


def test_explain_insert_is_trivial(db):
    plan = db.explain(
        "INSERT INTO items (id, name, price, category) VALUES (?, ?, ?, ?)",
        (999, "x", 1.0, 1),
    )
    assert plan.statement_kind == "insert"
    assert plan.root.op == "insert"


def test_result_set_explain_text(db):
    result = db.execute("SELECT id FROM items WHERE category = ?", (1,))
    assert "IndexEq items.category" in result.explain()


# -- counters match planner choices (issue checklist) -------------------------

def test_counters_match_chosen_plans(db):
    e = db.executor
    base = (e.index_scans, e.full_scans, e.range_scans, e.prefix_scans)
    queries = [
        ("SELECT id FROM items WHERE category = ?", (1,)),
        ("SELECT id FROM items WHERE price BETWEEN ? AND ?", (1.0, 3.0)),
        ("SELECT id FROM items WHERE name LIKE ?", ("gadget1%",)),
        ("SELECT id FROM items WHERE name LIKE ?", ("%dget%",)),
        ("SELECT id FROM items", ()),
    ]
    expected = {"index-eq": 0, "index-range": 0, "index-prefix": 0, "full-scan": 0}
    for sql, params in queries:
        result = db.execute(sql, params)
        expected[result.plan.root.op] += 1
    assert e.index_scans - base[0] == (
        expected["index-eq"] + expected["index-range"] + expected["index-prefix"]
    )
    assert e.full_scans - base[1] == expected["full-scan"]
    assert e.range_scans - base[2] == expected["index-range"]
    assert e.prefix_scans - base[3] == expected["index-prefix"]


# -- cost primitives ----------------------------------------------------------

def test_table_stats_reads_live_structures(db):
    stats = TableStats(db.table("items"))
    assert stats.row_count == 300
    assert stats.distinct_values("category") == 5
    assert stats.equality_records("category") == 60
    assert stats.distinct_values("id") == 300
    assert stats.min_max("price") == (0.0, 299.0)
    assert 0 < stats.range_records("price", 0.0, 29.9) <= 31
    assert stats.table_blocks() >= stats.blocks_for(60)


def test_choose_path_prefers_blocks_then_records_then_rank():
    eq = AccessChoice("index-eq", "t", "a", "", 2, 10)
    rng = AccessChoice("index-range", "t", "b", "", 2, 10)
    full = AccessChoice("full-scan", "t", None, "", 2, 10)
    assert choose_path([full, rng, eq]) is eq  # rank breaks the three-way tie
    cheaper = AccessChoice("full-scan", "t", None, "", 1, 100)
    assert choose_path([eq, cheaper]) is cheaper  # blocks dominate


# -- LRU caches (issue checklist: admit after churn) --------------------------

def test_lru_cache_evicts_and_keeps_admitting():
    cache = LruCache(4)
    for i in range(10):
        cache.put(i, i * 10)
    assert len(cache) == 4
    assert cache.get(0) is None  # evicted
    assert cache.get(9) == 90
    cache.put("fresh", 1)  # still admits at capacity
    assert cache.get("fresh") == 1
    assert len(cache) == 4


def test_lru_cache_get_refreshes_recency():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # touch a: b becomes LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_prepared_statement_cache_admits_after_statement_churn(db):
    """Regression: the old module-global caches stopped admitting at 4096
    entries, so statement churn silently disabled plan caching forever."""
    prepared = db._prepared
    capacity = prepared.capacity
    # Simulate heavy churn: saturate the cache with dead entries.
    for i in range(capacity + 50):
        prepared.put(("churn", i), None)
    assert len(prepared) == capacity
    sql = "SELECT id FROM items WHERE category = ?"
    result = db.execute(sql, (2,))
    assert result.used_index == "items.category"  # fresh plan was admitted
    assert len(prepared) == capacity  # evicted, not overflowed
    # And the new plan is actually cached: a second execution reuses it.
    entry = prepared.peek(sql)
    result2 = db.execute(sql, (3,))
    assert result2.used_index == "items.category"
    assert prepared.peek(sql) is entry is db.prepare(sql)


def test_prepared_statements_are_per_database(db):
    other = Database("other")
    other.create_table(
        TableSchema("t", [Column("id", INTEGER)], primary_key="id")
    )
    assert db._prepared is not other._prepared
    sql = "SELECT * FROM items WHERE id = ?"
    db.execute(sql, (1,))
    assert sql in db._prepared and sql not in other._prepared


def test_create_table_drops_prepared_statements(db):
    sql = "SELECT * FROM items WHERE id = ?"
    before = db.prepare(sql)
    db.create_table(TableSchema("extra", [Column("id", INTEGER)], primary_key="id"))
    assert len(db._prepared) == 0
    assert db.prepare(sql) is not before
    assert db.execute(sql, (1,)).rows == before.run((1,)).rows
