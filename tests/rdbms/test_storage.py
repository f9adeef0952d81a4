"""Unit tests for table storage and index maintenance."""

import pytest

from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.storage import StorageError, Table
from repro.rdbms.types import INTEGER, TEXT


@pytest.fixture
def table():
    schema = TableSchema(
        "people",
        [Column("id", INTEGER), Column("name", TEXT), Column("city", TEXT)],
        primary_key="id",
        indexes=["city"],
    )
    return Table(schema)


def test_insert_and_get(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    assert table.get(1) == {"id": 1, "name": "ann", "city": "nyc"}
    assert len(table) == 1


def test_get_returns_copy(table):
    """``get`` hands out the stored row, which acts as a copy taken at the
    read: a later update stores a new row and leaves it as it was."""
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    row = table.get(1)
    assert row is table._rows[1]
    table.update(1, {"name": "bob"})
    assert row == {"id": 1, "name": "ann", "city": "nyc"}
    assert table.get(1)["name"] == "bob" and table.get(1) is not row


def test_duplicate_primary_key_rejected(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    with pytest.raises(StorageError):
        table.insert({"id": 1, "name": "bob", "city": "sf"})


def test_null_primary_key_rejected():
    schema = TableSchema(
        "t", [Column("id", INTEGER, nullable=True)], primary_key="id"
    )
    with pytest.raises(StorageError):
        Table(schema).insert({"id": None})


def test_index_lookup(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.insert({"id": 2, "name": "bob", "city": "nyc"})
    table.insert({"id": 3, "name": "eve", "city": "sf"})
    rows = table.index_lookup("city", "nyc")
    assert {row["id"] for row in rows} == {1, 2}


def test_index_lookup_on_primary_key(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    assert table.index_lookup("id", 1)[0]["name"] == "ann"
    assert table.index_lookup("id", 99) == []


def test_index_lookup_unindexed_column_rejected(table):
    with pytest.raises(StorageError):
        table.index_lookup("name", "ann")


def test_has_index(table):
    assert table.has_index("id")
    assert table.has_index("city")
    assert not table.has_index("name")


def test_update_maintains_indexes(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    before = table.update(1, {"city": "sf"})
    assert before["city"] == "nyc"
    assert table.index_lookup("city", "nyc") == []
    assert table.index_lookup("city", "sf")[0]["id"] == 1


def test_update_missing_row_rejected(table):
    with pytest.raises(StorageError):
        table.update(42, {"name": "x"})


def test_primary_key_update_rejected(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    with pytest.raises(StorageError):
        table.update(1, {"id": 2})


def test_delete_removes_row_and_index_entries(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    deleted = table.delete(1)
    assert deleted["name"] == "ann"
    assert table.get(1) is None
    assert table.index_lookup("city", "nyc") == []


def test_delete_missing_rejected(table):
    with pytest.raises(StorageError):
        table.delete(42)


def test_restore_after_update_reverts_in_place(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    stored = table.get(1)
    before = table.update(1, {"city": "sf", "name": "ann2"})
    assert before is stored
    table.restore(before)
    assert table.get(1) is before
    assert before == {"id": 1, "name": "ann", "city": "nyc"}
    assert table.index_lookup("city", "sf") == []


def test_scan_iterates_copies(table):
    """Scanned rows act as copies taken at the scan: an update or delete
    afterwards stores a new row or drops the old one, never edits it."""
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.insert({"id": 2, "name": "bob", "city": "sf"})
    scanned = list(table.scan())
    table.update(1, {"name": "mutated", "city": "la"})
    table.delete(2)
    assert scanned == [
        {"id": 1, "name": "ann", "city": "nyc"},
        {"id": 2, "name": "bob", "city": "sf"},
    ]
    assert table.get(1)["name"] == "mutated"


def test_index_lookup_miss_never_grows_index(table):
    """Regression: probing an absent value used to insert an empty set.

    The secondary indexes were plain ``defaultdict(set)``, so every missed
    lookup materialized an empty bucket and the index grew monotonically
    with the *probe* workload instead of the data.
    """
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    assert len(table._indexes["city"]) == 1
    for probe in ["sf", "boston", None, 42, "nyc2"]:
        assert table.index_lookup("city", probe) == []
    assert len(table._indexes["city"]) == 1
    assert list(table._indexes["city"]) == ["nyc"]
    # Primary-key misses must not create rows either.
    assert table.index_lookup("id", 99) == []
    assert len(table) == 1


def test_index_lookup_copy_false_returns_live_rows(table):
    """Lookups hand out the stored rows, not copies; an update stores a
    new row and the looked-up one keeps its value."""
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    live = table.index_lookup("city", "nyc")[0]
    assert live is table._rows[1]
    assert table.index_lookup("id", 1)[0] is live
    assert table.range_lookup(1, 1)[0] is live
    table.update(1, {"name": "mutated"})
    assert live["name"] == "ann"
    assert table.index_lookup("city", "nyc")[0] is table._rows[1] is not live


def test_scan_copy_false_yields_live_rows(table):
    """A scan is a sized live view of the stored rows: it follows later
    inserts and deletes, and yields the stored dicts themselves."""
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    view = table.scan()
    table.insert({"id": 2, "name": "bob", "city": "sf"})
    assert len(view) == 2
    assert [row is table._rows[row["id"]] for row in view] == [True, True]
    table.delete(1)
    assert [row["id"] for row in view] == [2]


def test_index_lookup_mixed_key_types_stable_order(table):
    schema = TableSchema(
        "mixed",
        [Column("id", TEXT), Column("city", TEXT)],
        primary_key="id",
        indexes=["city"],
    )
    mixed = Table(schema)
    mixed.insert({"id": "a", "city": "nyc"})
    mixed.insert({"id": "b", "city": "nyc"})
    rows = mixed.index_lookup("city", "nyc")
    assert [row["id"] for row in rows] == ["a", "b"]


def test_bulk_load(table):
    count = table.bulk_load(
        {"id": i, "name": f"p{i}", "city": "nyc"} for i in range(5)
    )
    assert count == 5
    assert len(table) == 5
    assert [row["id"] for row in table.index_lookup("city", "nyc")] == list(range(5))


# ---------------------------------------------------------------------------
# Empty-bucket pruning (delete/update must not leave index garbage)
# ---------------------------------------------------------------------------


def test_delete_prunes_empty_hash_buckets(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.insert({"id": 2, "name": "bob", "city": "nyc"})
    table.delete(1)
    assert "nyc" in table._indexes["city"]  # bucket still has row 2
    table.delete(2)
    assert "nyc" not in table._indexes["city"]
    assert table._indexes["city"] == {}


def test_update_prunes_empty_hash_buckets(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.update(1, {"city": "sf"})
    assert "nyc" not in table._indexes["city"]
    assert table._indexes["city"] == {"sf": [1]}


def test_key_order_range_lookup(table):
    for i in (3, 0, 2, 1):
        table.insert({"id": i, "name": f"p{i}", "city": "nyc"})
    # The INTEGER primary key serves inclusive range probes, in key order.
    assert [r["id"] for r in table.range_lookup(1, 2)] == [1, 2]
    assert [r["id"] for r in table.range_lookup(None, 1)] == [0, 1]
    assert [r["id"] for r in table.range_lookup(2, None)] == [2, 3]
    assert [r["id"] for r in table.range_lookup(1.5, 9)] == [2, 3]
    assert table.range_lookup(4, 9) == []
    assert table.range_lookup(0, 0)[0] is table._rows[0]


def test_key_order_tracks_inserts_and_deletes(table):
    assert table.key_order == []
    for i in (4, 1, 3, 0, 2):
        table.insert({"id": i, "name": f"p{i}", "city": "nyc"})
    assert table.key_order == [0, 1, 2, 3, 4]
    table.delete(4)
    table.delete(1)
    assert table.key_order == [0, 2, 3]
    table.update(2, {"city": "sf"})
    assert table.key_order == [0, 2, 3]
    # A TEXT primary key keeps no order, so no range probe can use it.
    text = Table(TableSchema("t", [Column("id", TEXT)], primary_key="id"))
    text.insert({"id": "b"})
    assert text.key_order is None
    with pytest.raises(StorageError, match="no key order"):
        text.range_lookup("a", "c")


# ---------------------------------------------------------------------------
# Images (image -> load_image rebuilds a table without SQL)
# ---------------------------------------------------------------------------


def _lookups(table):
    return (
        list(table.scan()),
        [table.index_lookup("city", city) for city in ("nyc", "sf", "la", "boston")],
        table.range_lookup(2, 40),
        table.key_order,
    )


def test_an_image_rebuilds_an_insert_only_table_node_for_node(table):
    for i in range(300):
        table.insert({"id": (i * 37) % 300, "name": f"p{i}", "city": f"c{i % 17}"})
    copy = Table(table.schema)
    copy.load_image(table.image())
    assert list(copy._rows.items()) == list(table._rows.items())
    assert list(copy._indexes["city"].items()) == list(table._indexes["city"].items())
    assert copy.key_order == table.key_order == list(range(300))
    # The rows are shared, the indexes are not: the copy moves on alone.
    assert all(copy._rows[key] is row for key, row in table._rows.items())
    copy.update(5, {"city": "moved"})
    copy.delete(6)
    assert table.get(5)["city"] != "moved" and table.get(6) is not None
    assert 6 in table.key_order and 5 in table._indexes["city"][table.get(5)["city"]]


def test_an_image_of_a_churned_table_answers_every_lookup_alike(table):
    for i in range(60):
        table.insert({"id": i, "name": f"p{i}", "city": ["nyc", "sf", "la"][i % 3]})
    for i in range(0, 60, 4):
        table.update(i, {"city": "boston" if i % 8 else "Nashville"})
    for i in range(1, 60, 5):
        table.delete(i)
    table.restore({"id": 2, "name": "back", "city": "sf"})
    copy = Table(table.schema)
    copy.load_image(table.image())
    assert _lookups(copy) == _lookups(table)
    assert table.image() == copy.image()


def test_load_image_needs_an_empty_table(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    with pytest.raises(StorageError, match="empty"):
        table.load_image(table.image())
