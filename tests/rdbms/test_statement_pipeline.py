"""The statement pipeline: what a prepared statement may decide early.

Three kinds of check.  Exactness of the join push-down: only the leading
run of base-table conjuncts filters before the probe, unprovable names
raise at execution, over rows, and nothing is raised at prepare.  Arity
is checked before any lock is taken.  And the work a warm
``Database.execute`` does is bounded in Python calls, counted with
``sys.setprofile`` on a populated RUBiS database.
"""

import sys

import pytest

from repro.apps import rubis
from repro.rdbms.engine import Database
from repro.rdbms.executor import ExecutionError
from repro.rdbms.expressions import EvaluationError
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.server import DatabaseServer
from repro.rdbms.types import INTEGER, TEXT
from repro.simnet.rng import Streams
from tests.helpers import run_process


@pytest.fixture
def shop():
    """items(id, seller, category) -> users(id, region_id), both indexed."""
    database = Database("shop")
    database.create_table(
        TableSchema(
            "users",
            [Column("id", INTEGER), Column("region_id", INTEGER), Column("nick", TEXT)],
            primary_key="id",
            indexes=["region_id"],
        )
    )
    database.create_table(
        TableSchema(
            "items",
            [Column("id", INTEGER), Column("seller", INTEGER), Column("category", INTEGER)],
            primary_key="id",
            indexes=["category"],
        )
    )
    for user in range(4):
        database.execute(
            "INSERT INTO users (id, region_id, nick) VALUES (?, ?, ?)",
            (user, user % 2, f"u{user}"),
        )
    for item in range(12):
        database.execute(
            "INSERT INTO items (id, seller, category) VALUES (?, ?, ?)",
            (item, item % 4, item % 3),
        )
    return database


JOIN = "SELECT items.id FROM items JOIN users u ON items.seller = u.id WHERE "


# -- push-down exactness ------------------------------------------------------
def test_leading_base_conjunct_filters_before_the_probe(shop):
    result = shop.execute(JOIN + "items.category = ? AND u.region_id = ?", (1, 0))
    # 4 rows off the category index, each probes users once.
    assert result.rows_scanned == 4 + 4
    assert sorted(row["items.id"] for row in result.rows) == [4, 10]
    assert shop.executor.join_index_lookups == 4


def test_base_conjunct_behind_an_invisible_one_must_not_filter_early(shop):
    """``And`` stops at ``u.region_id`` on a base row — not visible yet, the
    row is kept — so every candidate still probes, as it always did."""
    result = shop.execute(JOIN + "u.region_id = ? AND items.category = ?", (0, 1))
    assert result.used_index == "items.category"  # the index still narrows
    early = shop.execute(JOIN + "items.category = ? AND u.region_id = ?", (1, 0))
    assert result.rows == early.rows
    assert result.rows_scanned == early.rows_scanned == 4 + 4
    full = shop.execute(
        JOIN + "u.region_id = ? AND items.seller BETWEEN ? AND ?", (0, 0, 0)
    )
    # No index candidate: all 12 rows are scanned and all 12 probe, although
    # ``items.seller BETWEEN 0 AND 0`` alone would have left 3.
    assert full.rows_scanned == 12 + 12
    assert sorted(row["items.id"] for row in full.rows) == [0, 4, 8]


def test_ambiguous_bare_name_filters_the_base_and_raises_after_the_join(shop):
    # ``id`` is items.id on a base row, ambiguous once users is joined.
    with pytest.raises(EvaluationError, match="ambiguous column 'id'"):
        shop.execute(JOIN + "id = ?", (3,))
    # ... but only if a joined row exists to evaluate it on.
    assert shop.execute(JOIN + "id = ?", (99,)).rows == []


def test_unknown_names_raise_at_execution_and_only_over_rows():
    database = Database("empty")
    database.create_table(TableSchema("t", [Column("id", INTEGER)], primary_key="id"))
    database.create_table(TableSchema("s", [Column("id", INTEGER)], primary_key="id"))
    statements = [
        "SELECT nope FROM t WHERE missing = 1",
        "SELECT t.id FROM t JOIN s ON t.absent = s.id WHERE q.x = 1",
        "SELECT COUNT(*) FROM t WHERE nope BETWEEN 1 AND 2",
        "UPDATE t SET id = 1 WHERE nope = 2",
    ]
    for sql in statements:
        database.prepare(sql)  # nothing is raised at prepare ...
        database.execute(sql)  # ... nor over an empty table
    database.execute("INSERT INTO t (id) VALUES (1)")
    database.execute("INSERT INTO s (id) VALUES (1)")
    for sql, name in zip(statements, ["missing", "t.absent", "nope", "nope"]):
        with pytest.raises(EvaluationError, match=f"row has no column '{name}'"):
            database.execute(sql)


def test_missing_table_is_an_execution_error_and_is_not_cached(shop):
    with pytest.raises(ExecutionError, match="no such table 'later'"):
        shop.execute("SELECT * FROM later")
    shop.create_table(TableSchema("later", [Column("id", INTEGER)], primary_key="id"))
    assert shop.execute("SELECT * FROM later").rows == []


def test_prebuilt_ast_takes_the_same_path(shop):
    sql = JOIN + "items.category = ? AND u.region_id = ?"
    statement = shop.prepare(sql).statement
    by_text = shop.execute(sql, (1, 0))
    by_ast = shop.execute(statement, (1, 0))
    assert by_ast.rows == by_text.rows
    assert (by_ast.rows_scanned, by_ast.used_index) == (
        by_text.rows_scanned, by_text.used_index
    )


# -- arity before locks -------------------------------------------------------
def test_wrong_arity_update_fails_before_any_lock(env, network, shop):
    server = DatabaseServer(env, network.node("c"), shop)
    session = server.open_session()
    update = "UPDATE items SET seller = ? WHERE category = ?"
    for params in [(5,), (5, 1, 2)]:
        with pytest.raises(ExecutionError, match="statement takes 2 parameters"):
            run_process(env, server.execute(session, update, params))
        assert server.locks._owners == {}
        assert session.transaction.locks == set()
    with pytest.raises(ExecutionError, match="statement takes 2 parameters"):
        shop.write_targets(update, (5,))
    # A predicate that cannot be evaluated still locks the whole table.
    assert shop.write_targets("UPDATE items SET seller = 1 WHERE nope = ?", (1,)) == [
        ("items", ("*",))
    ]


# -- Python calls per warm execute --------------------------------------------
def _python_calls(function) -> int:
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(tracer)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def rubis_database():
    database, catalog = rubis.populate_rubis(Streams(7), None)
    return database, catalog, rubis.build_application().queries


@pytest.mark.parametrize(
    "case, limit",
    [
        ("point select", 15),  # 49 before prepared statements
        ("bid history join", 35),  # 104
        ("items in category", 130),  # 248
        ("category and region join", 260),  # 468
    ],
)
def test_warm_execute_stays_within_its_call_budget(rubis_database, case, limit):
    database, catalog, queries = rubis_database
    category = catalog.category_ids[2]
    sql, params, rows, scanned = {
        "point select": ("SELECT * FROM items WHERE id = ?", (catalog.item_ids[3],), 1, 1),
        # Item 1 has one bid: one index row, one probe of users.
        "bid history join": (queries["rubis.bid_history"], (1,), 1, 2),
        "items in category": (queries["rubis.items_in_category"], (category,), 20, 20),
        # 20 items off the index, 20 probes of users, no seller in region 1.
        "category and region join": (
            queries["rubis.items_in_category_region"], (category, 1), 0, 40
        ),
    }[case]
    result = database.execute(sql, params)  # warm: prepared on this call at the latest
    assert (len(result.rows), result.rows_scanned) == (rows, scanned)
    execute = database.execute
    assert _python_calls(lambda: execute(sql, params)) - 1 <= limit  # less the lambda
