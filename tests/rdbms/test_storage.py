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
    assert 1 in table


def test_get_returns_copy(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    row = table.get(1)
    row["name"] = "mutated"
    assert table.get(1)["name"] == "ann"


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


def test_restore_after_delete(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    image = table.delete(1)
    table.restore(image)
    assert table.get(1) == image
    assert table.index_lookup("city", "nyc")[0]["id"] == 1


def test_restore_after_update_reverts_in_place(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    before = table.update(1, {"city": "sf", "name": "ann2"})
    table.restore(before)
    assert table.get(1) == before
    assert table.index_lookup("city", "sf") == []


def test_scan_iterates_copies(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    for row in table.scan():
        row["name"] = "mutated"
    assert table.get(1)["name"] == "ann"


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
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    live = table.index_lookup("city", "nyc", copy=False)[0]
    assert live is table._rows[1]
    copied = table.index_lookup("city", "nyc")[0]
    assert copied is not live
    copied["name"] = "mutated"
    assert table.get(1)["name"] == "ann"
    live_pk = table.index_lookup("id", 1, copy=False)[0]
    assert live_pk is table._rows[1]


def test_scan_copy_false_yields_live_rows(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.insert({"id": 2, "name": "bob", "city": "sf"})
    live = list(table.scan(copy=False))
    assert [row is table._rows[row["id"]] for row in live] == [True, True]
    # Default scan still hands out independent copies.
    for row in table.scan():
        assert row is not table._rows[row["id"]]


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


def test_truncate_and_bulk_load(table):
    count = table.bulk_load(
        {"id": i, "name": f"p{i}", "city": "nyc"} for i in range(5)
    )
    assert count == 5
    table.truncate()
    assert len(table) == 0
    assert table.index_lookup("city", "nyc") == []


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
    assert table.distinct_count("city") == 0


def test_update_prunes_empty_hash_buckets(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    table.update(1, {"city": "sf"})
    assert "nyc" not in table._indexes["city"]
    assert table._indexes["city"]["sf"] == {1}
    assert table.distinct_count("city") == 1


def test_ordered_index_range_and_prefix_lookup(table):
    for i, city in enumerate(["Austin", "boston", "Boise", "chicago"]):
        table.insert({"id": i, "name": f"p{i}", "city": city})
    # TEXT ordered indexes are casefolded: prefix lookup is case-insensitive.
    rows = table.prefix_lookup("city", "BO")
    assert sorted(r["city"] for r in rows) == ["Boise", "boston"]
    # The INTEGER primary key serves ordered range probes.
    rows = table.range_lookup("id", 1, 2)
    assert [r["id"] for r in rows] == [1, 2]
    rows = table.range_lookup("id", 1, 3, lo_inclusive=False, hi_inclusive=False)
    assert [r["id"] for r in rows] == [2]


def test_column_min_max_tracks_mutations(table):
    assert table.column_min_max("id") is None
    for i in range(5):
        table.insert({"id": i, "name": f"p{i}", "city": "nyc"})
    assert table.column_min_max("id") == (0, 4)
    table.delete(4)
    assert table.column_min_max("id") == (0, 3)


def test_ordered_index_skips_null_values():
    schema = TableSchema(
        "n",
        [Column("id", INTEGER), Column("score", INTEGER, nullable=True)],
        primary_key="id",
        indexes=["score"],
    )
    t = Table(schema)
    t.insert({"id": 1, "score": None})
    t.insert({"id": 2, "score": 7})
    assert [r["id"] for r in t.range_lookup("score", 0, 10)] == [2]
    assert t.column_min_max("score") == (7, 7)
    t.delete(1)  # deleting the NULL row must not touch the tree
    assert t.column_min_max("score") == (7, 7)


# ---------------------------------------------------------------------------
# Images (image -> load_image rebuilds a table without SQL)
# ---------------------------------------------------------------------------


def _lookups(table):
    return (
        list(table.scan()),
        [table.index_lookup("city", city) for city in ("nyc", "sf", "la", "boston")],
        table.range_lookup("id", 2, 40),
        table.prefix_lookup("city", "N"),
        table.distinct_count("city"),
        table.column_min_max("city"),
        table.column_min_max("id"),
    )


def _shape(tree):
    """Keys per node, level by level, and the leaves' buckets."""
    levels, nodes = [], [tree._root]
    while nodes:
        levels.append([list(node.keys) for node in nodes])
        nodes = [child for node in nodes for child in getattr(node, "children", ())]
    return levels, list(tree.items())


def test_an_image_rebuilds_an_insert_only_table_node_for_node(table):
    for i in range(300):
        table.insert({"id": (i * 37) % 300, "name": f"p{i}", "city": f"c{i % 17}"})
    copy = Table(table.schema)
    copy.load_image(table.image())
    assert list(copy._rows.items()) == list(table._rows.items())
    assert list(copy._indexes["city"].items()) == list(table._indexes["city"].items())
    assert table._ordered["id"].height > 1
    for column, tree in table._ordered.items():
        assert _shape(copy._ordered[column]) == _shape(tree)
    # Nothing mutable is shared: the copy moves on alone.
    copy.update(5, {"city": "moved"})
    copy.delete(6)
    assert table.get(5)["city"] != "moved" and 6 in table


def test_an_image_of_a_churned_table_answers_every_lookup_alike(table):
    for i in range(60):
        table.insert({"id": i, "name": f"p{i}", "city": ["nyc", "sf", "la"][i % 3]})
    for i in range(0, 60, 4):
        table.update(i, {"city": "boston" if i % 8 else "Nashville"})
    for i in range(1, 60, 5):
        table.delete(i)
    table.restore({"id": 1, "name": "back", "city": "sf"})
    copy = Table(table.schema)
    copy.load_image(table.image())
    assert _lookups(copy) == _lookups(table)
    assert table.image() == copy.image()


def test_load_image_needs_an_empty_table(table):
    table.insert({"id": 1, "name": "ann", "city": "nyc"})
    with pytest.raises(StorageError, match="empty"):
        table.load_image(table.image())
