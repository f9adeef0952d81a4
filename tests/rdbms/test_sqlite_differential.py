"""Differential testing of the SQL engine against stdlib ``sqlite3``.

The same rows go into a :class:`~repro.rdbms.engine.Database` and an
in-memory SQLite database, and generated SELECTs over the supported
subset — one table or one join; ``=``, ranges, ``BETWEEN``, ``LIKE``,
``IN``, ``AND``/``OR``/``NOT``; NULLs; case-insensitive ``LIKE`` over
TEXT; ``ORDER BY``/``LIMIT``; the five aggregates; ``GROUP BY`` — must
return the same rows.  Our side runs with every index set the planner
can choose from, so each access path answers for the same SQL.

Where the engine departs from SQL on purpose the generator stays clear,
so a failure here is a wrong answer and not a known difference:

* three-valued logic is collapsed to False, so ``NOT`` over a NULL
  comparison is true here and unknown in SQL: ``NOT`` only wraps
  predicates over NOT NULL columns and non-NULL values; ``IN`` lists
  hold no NULL (``NULL IN (NULL)`` is true here);
* ``ORDER BY`` puts NULLs last ascending (SQLite: first), and ties are
  broken by heap or index order: sequences are compared on the sort
  key, over NOT NULL columns, and the rows as multisets;
* ``LIMIT`` without a total order may keep different rows: the count
  and membership in the unlimited result are compared;
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
def predicate(draw, columns, params, depth=0, negated=False):
    """One predicate; under a NOT only NOT NULL columns and values appear."""
    choices = ["cmp", "cmp", "cmp", "between", "in", "like"]
    if depth < 2:
        choices += ["and", "or", "or", "not"]
    kind = draw(st.sampled_from(choices))
    if kind in ("and", "or"):
        left = draw(predicate(columns, params, depth + 1, negated))
        right = draw(predicate(columns, params, depth + 1, negated))
        return f"({left} {kind.upper()} {right})"
    if kind == "not":
        return f"NOT {draw(predicate(columns, params, depth + 1, True))}"
    usable = [c for c, (_v, nullable) in columns.items() if not (negated and nullable)]
    column = draw(st.sampled_from(usable))
    values, _nullable = columns[column]
    nulls = not negated
    if kind == "like":
        text = [c for c in usable if c.rpartition(".")[2] in ("name", "note", "label")]
        return f"{draw(st.sampled_from(text))} LIKE {draw(operand(params, PATTERNS, nulls))}"
    if kind == "between":
        low = draw(operand(params, values, nulls))
        return f"{column} BETWEEN {low} AND {draw(operand(params, values, nulls))}"
    if kind == "in":
        count = draw(st.integers(1, 4))
        options = [draw(operand(params, values, False)) for _ in range(count)]
        return f"{column} IN ({', '.join(options)})"
    op = draw(st.sampled_from(["=", "=", "!=", "<>", "<", "<=", ">", ">="]))
    if draw(st.integers(0, 6)) == 0:
        return f"{draw(operand(params, values, nulls))} {op} {column}"
    return f"{column} {op} {draw(operand(params, values, nulls))}"


@st.composite
def query(draw):
    """``(select list, from, where, group, order, limit, params)``; an
    ORDER BY column is also the last select item, so results carry their key."""
    joined = draw(st.booleans())
    columns = JOINED if joined else SINGLE
    source = "items JOIN cats c ON items.cat = c.id" if joined else "items"
    params = []
    count = draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3]))
    conjuncts = [draw(predicate(columns, params)) for _ in range(count)]
    where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    numeric = [
        c for c in columns
        if c.rpartition(".")[2] in ("id", "cat", "qty", "price", "region")
    ]
    shape = draw(st.sampled_from(["rows", "rows", "aggregate", "group"]))
    group = order = limit = ""
    if shape == "rows":
        picked = draw(st.lists(st.sampled_from(list(columns)), min_size=1, max_size=4))
        items = ", ".join(f"{column} AS c{i}" for i, column in enumerate(picked))
        if draw(st.booleans()):
            sortable = [c for c, (_v, nullable) in columns.items() if not nullable]
            by = draw(st.sampled_from(sortable))
            items += f", {by} AS sort_key"
            order = f" ORDER BY {by}{draw(st.sampled_from(['', ' ASC', ' DESC']))}"
        if draw(st.integers(0, 2)) == 0:
            limit = f" LIMIT {draw(st.integers(0, 6))}"
    else:
        functions = st.sampled_from(["COUNT", "MIN", "MAX", "SUM", "AVG"])
        folded = [
            f"{draw(functions)}({draw(st.sampled_from(numeric))}) AS f{i}"
            for i in range(draw(st.integers(0, 3)))
        ]
        if not folded or draw(st.booleans()):
            folded.append("COUNT(*) AS total")
        if draw(st.integers(0, 3)) == 0:
            text = draw(st.sampled_from([c for c in columns if c not in numeric]))
            folded.append(f"{draw(st.sampled_from(['MIN', 'MAX', 'COUNT']))}({text}) AS t")
        items = ", ".join(folded)
        if shape == "group":
            key = draw(st.sampled_from(list(columns)))
            items = f"{key} AS k, {items}"
            group = f" GROUP BY {key}"
    return items, source, where, group, order, limit, tuple(params)


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


def _canonical(value):
    # AVG and SUM over REAL accumulate in a different order on each side.
    return round(value, 9) if isinstance(value, float) else value


def _ours(database, sql, params):
    return [
        tuple(_canonical(value) for value in row.values())
        for row in database.execute(sql, params).rows
    ]


def _theirs(lite, sql, params):
    return [tuple(_canonical(v) for v in row) for row in lite.execute(sql, params)]


def check_queries(item_data, cat_data, indexes, queries):
    database, lite = _load(item_data, cat_data, indexes)
    try:
        for items, source, where, group, order, limit, params in queries:
            unlimited = f"SELECT {items} FROM {source}{where}{group}"
            context = (unlimited + order + limit, params)
            ours, theirs = _ours(database, unlimited, params), _theirs(lite, unlimited, params)
            assert Counter(ours) == Counter(theirs), context
            if not (order or limit):
                continue
            got = _ours(database, unlimited + order + limit, params)
            want = _theirs(lite, unlimited + order + limit, params)
            assert len(got) == len(want), context
            assert not Counter(got) - Counter(ours), context  # drawn from the result
            if order:  # the sort key is the last select item
                assert [row[-1] for row in got] == [row[-1] for row in want], context
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
