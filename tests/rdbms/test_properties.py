"""Property-based tests (hypothesis) for the relational engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER, TEXT

_settings = settings(max_examples=60, deadline=None)


def _make_db():
    database = Database("prop")
    database.create_table(
        TableSchema(
            "t",
            [Column("id", INTEGER), Column("grp", INTEGER), Column("txt", TEXT)],
            primary_key="id",
            indexes=["grp"],
        )
    )
    return database


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=5),
        st.text(alphabet="abcxyz ", max_size=12),
    ),
    max_size=40,
    unique_by=lambda r: r[0],
)


@given(rows=rows_strategy)
@_settings
def test_insert_select_roundtrip(rows):
    """Every inserted row is retrievable by primary key, unchanged."""
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    for row_id, grp, txt in rows:
        row = db.execute("SELECT * FROM t WHERE id = ?", (row_id,)).first()
        assert row == {"id": row_id, "grp": grp, "txt": txt}


@given(rows=rows_strategy, grp=st.integers(min_value=0, max_value=5))
@_settings
def test_index_scan_equivalence(rows, grp):
    """Index-accelerated equality returns exactly what a full scan would."""
    db = _make_db()
    for row_id, row_grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, row_grp, txt))
    indexed = db.execute("SELECT id FROM t WHERE grp = ?", (grp,))
    expected = sorted(r[0] for r in rows if r[1] == grp)
    assert sorted(row["id"] for row in indexed.rows) == expected
    assert indexed.used_index == "t.grp"


@given(rows=rows_strategy)
@_settings
def test_count_matches_inserts(rows):
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    assert db.execute("SELECT COUNT(*) AS n FROM t").scalar() == len(rows)


@given(
    rows=rows_strategy,
    operations=st.lists(
        st.tuples(
            st.sampled_from(["update", "regroup", "insert"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=15,
    ),
)
@_settings
def test_rollback_restores_exact_state(rows, operations):
    """Any mix of mutations inside a transaction fully undoes on rollback."""
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    snapshot = sorted(
        (r["id"], r["grp"], r["txt"]) for r in db.execute("SELECT * FROM t").rows
    )
    tx = db.begin()
    existing = {r[0] for r in rows}
    inserted = set()
    for op, key in operations:
        try:
            if op == "update":
                db.execute("UPDATE t SET txt = 'mut' WHERE id = ?", (key,), transaction=tx)
            elif op == "regroup":
                db.execute(
                    "UPDATE t SET grp = ? WHERE grp = ?", (key % 6, key % 5), transaction=tx
                )
            else:
                if key not in existing and key not in inserted:
                    db.execute(
                        "INSERT INTO t (id, grp, txt) VALUES (?, 0, 'new')",
                        (key,),
                        transaction=tx,
                    )
                    inserted.add(key)
        except Exception:
            raise
    tx.rollback()
    after = sorted(
        (r["id"], r["grp"], r["txt"]) for r in db.execute("SELECT * FROM t").rows
    )
    assert after == snapshot


@given(needle=st.text(alphabet="abcxyz", min_size=1, max_size=4), rows=rows_strategy)
@_settings
def test_like_agrees_with_substring(needle, rows):
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    result = db.execute("SELECT id FROM t WHERE txt LIKE ?", (f"%{needle}%",))
    expected = sorted(r[0] for r in rows if needle.lower() in r[2].lower())
    assert sorted(row["id"] for row in result.rows) == expected


def _index_families_consistent(table):
    """Assert the hash indexes and the key order exactly mirror the rows:
    every bucket is the ascending list of the keys holding its value."""
    rows = table._rows
    for column, index in table._indexes.items():
        expected = {}
        for key, row in rows.items():
            expected.setdefault(row[column], []).append(key)
        assert index == {value: sorted(keys) for value, keys in expected.items()}, (
            f"hash index on {column} diverged"
        )
        assert all(bucket for bucket in index.values()), "empty hash bucket"
    assert table.key_order == sorted(rows), "key order diverged"


@given(
    rows=rows_strategy,
    deletions=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60),
)
@_settings
def test_delete_heavy_churn_leaves_no_empty_buckets(rows, deletions):
    """Deletes prune hash buckets and the key order instead of leaving husks."""
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    table = db.table("t")
    live = {r[0] for r in rows}
    for key in deletions:
        if key in live:
            table.delete(key)  # what rolling back an INSERT does
            live.discard(key)
    _index_families_consistent(table)
    assert len(table._indexes["grp"]) == len({r[1] for r in rows if r[0] in live})


@given(
    rows=rows_strategy,
    operations=st.lists(
        st.tuples(
            st.sampled_from(["update", "insert", "rollback_point"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=25,
    ),
)
@_settings
def test_restore_rebuilds_hash_and_ordered_indexes(rows, operations):
    """After interleaved mutations + rollback, the hash indexes and the key
    order match the rows (``delete()`` and ``restore()`` maintain both)."""
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    table = db.table("t")
    tx = db.begin()
    existing = {r[0] for r in rows}
    for op, key, grp in operations:
        if op == "update" and key in existing:
            db.execute(
                "UPDATE t SET grp = ?, txt = 'upd' WHERE id = ?",
                (grp, key),
                transaction=tx,
            )
        elif op == "insert" and key not in existing:
            db.execute(
                "INSERT INTO t (id, grp, txt) VALUES (?, ?, 'new')",
                (key, grp),
                transaction=tx,
            )
            existing.add(key)
    tx.rollback()
    _index_families_consistent(table)
    # Ordered probes agree with predicate evaluation after the rollback.
    ranged = db.execute("SELECT id FROM t WHERE id BETWEEN ? AND ?", (0, 5_000))
    expected = sorted(r[0] for r in rows if r[0] <= 5_000)
    assert [row["id"] for row in ranged.rows] == expected


@given(rows=rows_strategy, lo=st.integers(min_value=0, max_value=10_000))
@_settings
def test_range_scan_equivalence(rows, lo):
    """Key-order range results equal what a full scan would produce, in key
    order, and the executor's counters record the range path."""
    db = _make_db()
    for row_id, grp, txt in rows:
        db.execute("INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)", (row_id, grp, txt))
    executor = db.executor
    before = (executor.index_scans, executor.full_scans, executor.range_scans)
    result = db.execute("SELECT id FROM t WHERE id BETWEEN ? AND ?", (lo, 10_000))
    expected = sorted(r[0] for r in rows if r[0] >= lo)
    assert [row["id"] for row in result.rows] == expected
    assert result.used_index == "t.id"
    assert result.rows_scanned == max(1, len(expected))
    after = (executor.index_scans, executor.full_scans, executor.range_scans)
    assert after == (before[0] + 1, before[1], before[2] + 1)
