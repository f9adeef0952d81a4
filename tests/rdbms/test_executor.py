"""Unit tests for statement execution."""

import pytest

from repro.rdbms.engine import Database
from repro.rdbms.executor import ExecutionError
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.sql import SqlError
from repro.rdbms.types import FLOAT, INTEGER, TEXT


@pytest.fixture
def db():
    database = Database("test")
    database.create_table(
        TableSchema(
            "items",
            [
                Column("id", INTEGER),
                Column("name", TEXT),
                Column("category", INTEGER),
                Column("price", FLOAT),
            ],
            primary_key="id",
            indexes=["category"],
        )
    )
    database.create_table(
        TableSchema(
            "cats",
            [Column("id", INTEGER), Column("label", TEXT)],
            primary_key="id",
        )
    )
    for i in range(30):
        database.execute(
            "INSERT INTO items (id, name, category, price) VALUES (?, ?, ?, ?)",
            (i, f"item-{i}", i % 3, 10.0 + i),
        )
    for i in range(3):
        database.execute("INSERT INTO cats (id, label) VALUES (?, ?)", (i, f"cat-{i}"))
    return database


def test_full_scan_when_unindexed(db):
    result = db.execute("SELECT * FROM items WHERE price BETWEEN 35.5 AND 100.0")
    assert result.used_index is None
    assert result.rows_scanned == 30
    assert [row["id"] for row in result.rows] == list(range(26, 30))


def test_index_lookup_on_equality(db):
    result = db.execute("SELECT * FROM items WHERE category = ?", (1,))
    assert result.used_index == "items.category"
    assert result.rows_scanned == 10
    assert len(result.rows) == 10


def test_primary_key_lookup(db):
    result = db.execute("SELECT * FROM items WHERE id = 7")
    assert result.used_index == "items.id"
    assert result.first()["name"] == "item-7"


def test_index_plus_residual_filter(db):
    result = db.execute(
        "SELECT * FROM items WHERE category = 1 AND price BETWEEN 20.5 AND 99.0"
    )
    assert result.used_index == "items.category"
    assert result.rows_scanned == 10
    assert [row["id"] for row in result.rows] == [13, 16, 19, 22, 25, 28]


def test_projection_and_aliases(db):
    result = db.execute("SELECT price, name FROM items WHERE id = 3")
    assert result.columns == ["price", "name"]
    assert result.rows == [{"price": 13.0, "name": "item-3"}]
    with pytest.raises(SqlError):  # column aliases are out of the dialect
        db.execute("SELECT name AS label FROM items WHERE id = 3")


def test_order_by_and_limit(db):
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items ORDER BY price DESC")
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items LIMIT 3")


def test_aggregate_count_star(db):
    assert db.execute("SELECT COUNT(*) AS n FROM items").scalar() == 30
    result = db.execute("SELECT COUNT(*) FROM items WHERE category = 1")
    assert result.columns == ["count(*)"] and result.rows == [{"count(*)": 10}]


def test_aggregate_functions(db):
    result = db.execute("SELECT COUNT(*) AS n FROM items WHERE category = 0")
    assert result.rows == [{"n": 10}]
    for function in ("COUNT(id)", "MAX(price)", "MIN(price)", "SUM(price)", "AVG(price)"):
        with pytest.raises(SqlError):
            db.execute(f"SELECT {function} FROM items")


def test_aggregate_on_empty_set(db):
    result = db.execute("SELECT COUNT(*) AS n FROM items WHERE id = 999")
    assert result.rows == [{"n": 0}]


def test_mixing_aggregates_and_columns_rejected(db):
    with pytest.raises(SqlError):
        db.execute("SELECT name, COUNT(*) FROM items")


def test_like_matching(db):
    result = db.execute("SELECT id FROM items WHERE name LIKE '%item-2%'")
    ids = {row["id"] for row in result.rows}
    assert ids == {2, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}


def test_join_with_qualified_columns(db):
    result = db.execute(
        "SELECT items.name, c.label FROM items JOIN cats c ON items.category = c.id "
        "WHERE c.label = 'cat-1' AND items.price BETWEEN 0 AND 14.5"
    )
    # category-1 items with price < 15.0: item-1 (11.0) and item-4 (14.0).
    assert result.rows == [
        {"items.name": "item-1", "c.label": "cat-1"},
        {"items.name": "item-4", "c.label": "cat-1"},
    ]


def test_join_row_count(db):
    result = db.execute("SELECT items.id FROM items JOIN cats c ON items.category = c.id")
    assert len(result.rows) == 30


def test_insert_affects_and_scans(db):
    result = db.execute(
        "INSERT INTO items (id, name, category, price) VALUES (99, 'new', 0, 1.0)"
    )
    assert result.affected == 1
    assert db.execute("SELECT name FROM items WHERE id = 99").scalar() == "new"


def test_update_by_index(db):
    result = db.execute("UPDATE items SET price = ? WHERE id = ?", (999.0, 3))
    assert result.affected == 1
    assert db.execute("SELECT price FROM items WHERE id = 3").scalar() == 999.0


def test_update_many_rows(db):
    result = db.execute("UPDATE items SET price = 0.0 WHERE category = 2")
    assert result.affected == 10


def test_delete(db):
    with pytest.raises(SqlError):
        db.execute("DELETE FROM items WHERE id = 5")
    assert db.execute("SELECT COUNT(*) AS n FROM items WHERE id = 5").scalar() == 1


def test_parameter_count_mismatch_rejected(db):
    with pytest.raises(ExecutionError):
        db.execute("SELECT * FROM items WHERE id = ?", ())
    with pytest.raises(ExecutionError):
        db.execute("SELECT * FROM items WHERE id = ?", (1, 2))


def test_unknown_table_rejected(db):
    with pytest.raises(ExecutionError):
        db.execute("SELECT * FROM nope")


def test_scalar_requires_single_cell(db):
    with pytest.raises(ExecutionError):
        db.execute("SELECT * FROM items").scalar()


def test_in_list_predicate(db):
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items WHERE id IN (1, 2, 3)")


def test_group_by_star_rejected(db):
    with pytest.raises(SqlError):
        db.execute("SELECT * FROM items GROUP BY category")


def test_null_comparisons_are_false():
    database = Database("nulls")
    database.create_table(
        TableSchema(
            "t",
            [Column("id", INTEGER), Column("v", INTEGER, nullable=True)],
            primary_key="id",
        )
    )
    database.execute("INSERT INTO t (id, v) VALUES (1, NULL)")
    assert len(database.execute("SELECT * FROM t WHERE v = NULL").rows) == 0
    assert len(database.execute("SELECT * FROM t WHERE v BETWEEN 0 AND 5").rows) == 0
    assert len(database.execute("SELECT * FROM t WHERE v LIKE '%'").rows) == 0
