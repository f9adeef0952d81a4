"""Differential testing of the SQL engine against stdlib ``sqlite3``.

The same rows go into a :class:`~repro.rdbms.engine.Database` and an
in-memory SQLite database, and generated SELECTs of the dialect — one
table or one join; ``=``, ``BETWEEN`` and ``LIKE`` under an OR of ANDs;
NULLs; case-insensitive ``LIKE`` over TEXT; ``COUNT(*)`` — must return
the same rows.  Our side runs with every index set the schema can
declare, so each access path answers for the same SQL.

Where the engine departs from SQL on purpose the generator stays clear,
so a failure here is a wrong answer and not a known difference:

* three-valued logic is collapsed to False; without NOT that filters the
  same rows as SQL's unknown;
* a result row is a dict keyed by column name, so a select list names
  each column once;
* a join key that is NULL on both sides matches here: joins go to the
  inner table's primary key.
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import FLOAT, INTEGER, TEXT

ITEMS = [
    Column("id", INTEGER),
    Column("cat", INTEGER),
    Column("qty", INTEGER, nullable=True),
    Column("price", FLOAT, nullable=True),
    Column("name", TEXT),
    Column("note", TEXT, nullable=True),
]
CATS = [Column("id", INTEGER), Column("region", INTEGER), Column("label", TEXT)]
SQLITE_DDL = (
    "CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER NOT NULL, qty INTEGER, "
    "price REAL, name TEXT NOT NULL, note TEXT)",
    "CREATE TABLE cats (id INTEGER PRIMARY KEY, region INTEGER NOT NULL, "
    "label TEXT NOT NULL)",
)

NAMES = ["", "a", "Ab", "abc", "ABD", "b", "Ba", "bab", "zed"]
name = st.sampled_from(NAMES)
small = st.integers(0, 5)
maybe_small = st.one_of(st.none(), small)
maybe_price = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5, 4.0, 7.25]))

item_rows = st.one_of(st.just([]), st.lists(
    st.tuples(st.integers(0, 30), small, maybe_small, maybe_price, name,
              st.one_of(st.none(), name)),
    min_size=8, max_size=24, unique_by=lambda row: row[0],
))
cat_rows = st.one_of(st.just([]), st.lists(
    st.tuples(small, st.integers(0, 2), name),
    min_size=3, max_size=6, unique_by=lambda row: row[0],
))
index_sets = st.tuples(
    st.lists(st.sampled_from(["cat", "qty", "price", "name", "note"]), unique=True),
    st.lists(st.sampled_from(["region", "label"]), unique=True),
)

# column -> (strategy of non-NULL values of its type, nullable)
SINGLE = {
    "id": (st.integers(0, 30), False),
    "cat": (small, False),
    "qty": (small, True),
    "price": (st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]), True),
    "name": (name, False),
    "note": (name, True),
}
JOINED = {
    "items.id": SINGLE["id"], "items.cat": SINGLE["cat"], "items.qty": SINGLE["qty"],
    "items.name": SINGLE["name"], "price": SINGLE["price"], "note": SINGLE["note"],
    "c.id": (small, False), "c.region": (st.integers(0, 2), False),
    "c.label": (name, False), "region": (st.integers(0, 2), False),
}
PATTERNS = st.sampled_from(["a%", "A%", "%b", "%a%", "ab%", "%", "b%b", "abc", "%B%d", ""])


@st.composite
def operand(draw, params, values, allow_null):
    item = None if allow_null and draw(st.integers(0, 9)) == 0 else draw(values)
    if draw(st.booleans()):
        params.append(item)
        return "?"
    if item is None:
        return "NULL"
    return "'" + item + "'" if isinstance(item, str) else repr(item)


@st.composite
def predicate(draw, columns, params):
    kind = draw(st.sampled_from(["eq", "eq", "between", "between", "like"]))
    column = draw(st.sampled_from(list(columns)))
    values, _nullable = columns[column]
    if kind == "like":
        text = [c for c in columns if c.rpartition(".")[2] in ("name", "note", "label")]
        return f"{draw(st.sampled_from(text))} LIKE {draw(operand(params, PATTERNS, True))}"
    if kind == "between":
        low = draw(operand(params, values, True))
        return f"{column} BETWEEN {low} AND {draw(operand(params, values, True))}"
    return f"{column} = {draw(operand(params, values, True))}"


@st.composite
def query(draw):
    """``(select list, from, where, params)``."""
    joined = draw(st.booleans())
    columns = JOINED if joined else SINGLE
    source = "items JOIN cats c ON items.cat = c.id" if joined else "items"
    params = []
    disjuncts = [
        " AND ".join(
            draw(predicate(columns, params)) for _ in range(draw(st.integers(1, 3)))
        )
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 1, 2, 3])))
    ]
    where = " WHERE " + " OR ".join(disjuncts) if disjuncts else ""
    if draw(st.integers(0, 3)) == 0:
        items = draw(st.sampled_from(["COUNT(*)", "COUNT(*) AS total"]))
    else:
        picked = draw(st.lists(st.sampled_from(list(columns)), min_size=1, max_size=4, unique=True))
        items = ", ".join(picked)
    return items, source, where, tuple(params)


def _load(item_data, cat_data, indexes):
    database = Database("differential")
    database.create_table(TableSchema("items", ITEMS, "id", indexes=indexes[0]))
    database.create_table(TableSchema("cats", CATS, "id", indexes=indexes[1]))
    database.load("items", (dict(zip([c.name for c in ITEMS], row)) for row in item_data))
    database.load("cats", (dict(zip([c.name for c in CATS], row)) for row in cat_data))
    lite = sqlite3.connect(":memory:")
    for ddl in SQLITE_DDL:
        lite.execute(ddl)
    lite.executemany("INSERT INTO items VALUES (?, ?, ?, ?, ?, ?)", item_data)
    lite.executemany("INSERT INTO cats VALUES (?, ?, ?)", cat_data)
    return database, lite


def check_queries(item_data, cat_data, indexes, queries):
    database, lite = _load(item_data, cat_data, indexes)
    try:
        for items, source, where, params in queries:
            sql = f"SELECT {items} FROM {source}{where}"
            ours = [tuple(row.values()) for row in database.execute(sql, params).rows]
            theirs = list(lite.execute(sql, params))
            assert Counter(ours) == Counter(theirs), (sql, params)
    finally:
        lite.close()


workloads = dict(
    item_data=item_rows,
    cat_data=cat_rows,
    indexes=index_sets,
    queries=st.lists(query(), min_size=5, max_size=12),
)

test_selects_agree_with_sqlite = settings(max_examples=150, deadline=None)(
    given(**workloads)(check_queries)
)


@pytest.mark.slow
def test_selects_agree_with_sqlite_long_fuzz(request):
    """The same property over a few thousand examples — minutes, so it runs
    only when asked for: ``pytest -m slow --hypothesis-seed=N`` on this file
    (CI does, on one Python version)."""
    if "slow" not in request.config.getoption("-m"):
        pytest.skip("long fuzz: select it with -m slow")
    settings(max_examples=3000, deadline=None)(given(**workloads)(check_queries))()
