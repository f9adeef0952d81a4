"""Tests for the access-path rule, the scan counters and the statement caches."""

import pytest

from repro.rdbms.engine import Database
from repro.rdbms.lru import LruCache
from repro.rdbms.schema import Column, TableSchema
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
    return {"index": e.index_scans, "full": e.full_scans, "range": e.range_scans}


def _delta(before, after):
    return {k: after[k] - before[k] for k in before}


def _ids(result):
    return sorted(row["id"] for row in result.rows)


# -- access-path choice -------------------------------------------------------

def test_range_predicate_uses_ordered_index(db):
    before = _counters(db)
    result = db.execute("SELECT id FROM items WHERE id BETWEEN ? AND ?", (10, 19))
    assert [row["id"] for row in result.rows] == list(range(10, 20))  # key order
    assert result.used_index == "items.id"
    assert result.rows_scanned == 10
    assert _delta(before, _counters(db)) == {"index": 1, "full": 0, "range": 1}


def test_between_routes_through_range_index(db):
    result = db.execute("SELECT id FROM items WHERE id BETWEEN ? AND ?", (50, 59))
    assert _ids(result) == list(range(50, 60))
    assert result.used_index == "items.id"
    # One NULL bound leaves the range open on that side; the predicate
    # still rejects every row.
    result = db.execute("SELECT id FROM items WHERE id BETWEEN ? AND ?", (None, 4))
    assert result.used_index == "items.id"
    assert result.rows == [] and result.rows_scanned == 5
    # Two NULL bounds: no range to take.
    result = db.execute("SELECT id FROM items WHERE id BETWEEN ? AND ?", (None, None))
    assert result.used_index is None and result.rows == []


def test_between_nested_under_and_still_flattens(db):
    result = db.execute(
        "SELECT id FROM items WHERE name LIKE ? AND id BETWEEN ? AND ?",
        ("%1%", 0, 49),
    )
    assert _ids(result) == [1, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 31, 41]
    assert result.used_index == "items.id"
    assert result.rows_scanned == 50


def test_prefix_like_is_case_insensitive(db):
    result = db.execute("SELECT id FROM items WHERE name LIKE ?", ("GADGET00%",))
    assert _ids(result) == list(range(10))
    assert result.used_index is None  # LIKE never probes an index


def test_interior_wildcard_like_stays_full_scan(db):
    before = _counters(db)
    result = db.execute("SELECT id FROM items WHERE name LIKE ?", ("%42%",))
    assert result.used_index is None
    assert result.rows_scanned == 300
    assert _delta(before, _counters(db)) == {"index": 0, "full": 1, "range": 0}


def test_text_column_never_serves_range_predicates(db):
    # Only a primary key that is not TEXT keeps a key order.
    db.create_table(
        TableSchema("tags", [Column("tag", TEXT)], primary_key="tag")
    )
    for tag in ("a", "B", "c"):
        db.execute("INSERT INTO tags (tag) VALUES (?)", (tag,))
    result = db.execute("SELECT tag FROM tags WHERE tag BETWEEN ? AND ?", ("A", "b"))
    assert result.used_index is None
    assert result.rows == [{"tag": "a"}, {"tag": "B"}]  # byte order, not casefolded
    # Nor does a secondary index, of any type.
    result = db.execute("SELECT id FROM items WHERE price BETWEEN ? AND ?", (1.0, 2.0))
    assert result.used_index is None
    assert _ids(result) == [1, 2]


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
    # An index probe scans at least one row, even of an empty table.
    assert result.used_index == "t.grp"
    assert result.rows_scanned == 1


def test_equality_wins_over_range(db):
    # category = 3 matches 60 rows and the range 2: the rule still takes
    # the equality, which comes first in its order.
    result = db.execute(
        "SELECT id FROM items WHERE id BETWEEN ? AND ? AND category = ?", (297, 299, 3)
    )
    assert result.used_index == "items.category"
    assert result.rows_scanned == 60
    assert _ids(result) == [298]
    # The leftmost indexed equality is the one probed.
    result = db.execute(
        "SELECT id FROM items WHERE name = ? AND category = ? AND id = ?",
        ("gadget003", 3, 3),
    )
    assert result.used_index == "items.name"


def test_force_full_scans_knob(db):
    db.executor.force_full_scans = True
    result = db.execute("SELECT id FROM items WHERE category = ?", (1,))
    assert result.used_index is None
    assert result.rows_scanned == 300
    db.executor.force_full_scans = False
    result = db.execute("SELECT id FROM items WHERE category = ?", (1,))
    assert result.used_index == "items.category"


def test_update_routes_through_the_access_path_rule(db):
    result = db.execute(
        "UPDATE items SET category = ? WHERE id BETWEEN ? AND ?", (9, 10, 12)
    )
    assert result.affected == 3
    assert result.used_index == "items.id"
    assert result.rows_scanned == 3
    result = db.execute("UPDATE items SET price = ? WHERE category = ?", (1.0, 9))
    assert result.affected == 3
    assert result.used_index == "items.category"


# -- counters match the chosen paths ------------------------------------------

def test_counters_match_chosen_plans(db):
    e = db.executor
    base = (e.index_scans, e.full_scans, e.range_scans)
    queries = [
        ("SELECT id FROM items WHERE category = ?", (1,)),
        ("SELECT id FROM items WHERE id BETWEEN ? AND ?", (1, 3)),
        ("SELECT id FROM items WHERE name LIKE ?", ("gadget1%",)),
        ("SELECT id FROM items WHERE name LIKE ?", ("%dget%",)),
        ("SELECT id FROM items", ()),
    ]
    paths = {"eq": 0, "range": 0, "full": 0}
    for sql, params in queries:
        result = db.execute(sql, params)
        if result.used_index is None:
            paths["full"] += 1
        else:
            paths["range" if "BETWEEN" in sql else "eq"] += 1
    assert paths == {"eq": 1, "range": 1, "full": 3}
    assert e.index_scans - base[0] == paths["eq"] + paths["range"]
    assert e.full_scans - base[1] == paths["full"]
    assert e.range_scans - base[2] == paths["range"]


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
