"""Prepared statements against the executor they replaced.

``reference_executor.py`` is the parent commit's executor, kept literally:
it re-analyses, costs every scan against live statistics and builds its
EXPLAIN nodes eagerly on every execution.  Over generated schemas, index
sets, table sizes (empty included), statements and parameters, a prepared
statement must return the same rows, ``rows_scanned``, ``used_index``,
move the six executor counters by the same amounts, raise the same error
at the same statement, and — read only at the end, after later inserts
and deletes — show the same ``plan.render()`` / ``as_dict()`` the
reference built at execution time.  ``force_full_scans`` is flipped on a
warm cache and a ``create_table`` lands mid-sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.sql import parse_cached
from repro.rdbms.types import FLOAT, INTEGER, TEXT

from .reference_executor import Executor as ReferenceExecutor

COUNTERS = (
    "index_scans", "full_scans", "range_scans", "prefix_scans",
    "join_index_lookups", "join_full_scans",
)

A_COLUMNS = [
    Column("id", INTEGER),
    Column("k", INTEGER),
    Column("n", INTEGER, nullable=True),
    Column("f", FLOAT, nullable=True),
    Column("s", TEXT),
    Column("v", INTEGER, nullable=True),
]
B_COLUMNS = [
    Column("id", INTEGER),
    Column("g", INTEGER),
    Column("s2", TEXT),
    Column("v", INTEGER, nullable=True),
]
C_COLUMNS = [Column("id", INTEGER), Column("h", INTEGER, nullable=True)]

WORDS = ["", "a", "Ab", "abc", "B", "ba", "aB%", "zed"]
small_int = st.integers(min_value=0, max_value=6)
maybe_int = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
maybe_float = st.one_of(st.none(), st.sampled_from([0.5, 1.5, 2.5, 4.0]))
word = st.sampled_from(WORDS)

# Empty tables are a case of their own; otherwise enough rows to match.
a_rows = st.one_of(st.just([]), st.lists(
    st.tuples(st.integers(0, 15), small_int, maybe_int, maybe_float, word, maybe_int),
    min_size=5, max_size=16, unique_by=lambda row: row[0],
))
b_rows = st.one_of(st.just([]), st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 2), word, maybe_int),
    min_size=4, max_size=7, unique_by=lambda row: row[0],
))
c_rows = st.lists(
    st.tuples(st.integers(0, 2), maybe_int), max_size=3, unique_by=lambda row: row[0]
)


@st.composite
def schemas(draw):
    a_indexes = draw(st.lists(st.sampled_from(["k", "n", "f", "s", "v"]), unique=True))
    b_indexes = draw(st.lists(st.sampled_from(["g", "s2", "v"]), unique=True))
    return (
        TableSchema("a", A_COLUMNS, "id", indexes=a_indexes),
        TableSchema("b", B_COLUMNS, "id", indexes=b_indexes),
        TableSchema("c", C_COLUMNS, "id", indexes=draw(st.sampled_from([[], ["h"]]))),
    )


# -- statements ---------------------------------------------------------------
# A FROM clause, the names a WHERE or select list may use with it (proven,
# ambiguous, wrongly qualified and unknown ones alike), and its numeric ones.
SHAPES = [
    ("a", ["id", "k", "n", "f", "s", "v", "a.id", "a.n", "x.s", "zz", "b.g"],
     ["id", "k", "n", "f", "v", "a.n"]),
    ("a JOIN b x ON a.k = x.id",
     ["a.id", "a.n", "a.s", "a.v", "x.g", "x.s2", "x.v", "x.id", "n", "g", "k",
      "id", "v", "zz", "q.n", "s", "s2"],
     ["a.id", "a.n", "x.g", "x.v", "n", "g", "a.f"]),
    ("a JOIN b ON b.id = k",
     ["a.id", "a.n", "b.g", "b.s2", "n", "g", "id", "a.s", "b.v"],
     ["a.id", "a.n", "b.g", "n", "g"]),
    ("a JOIN b x ON a.v = x.v",
     ["a.id", "a.n", "x.g", "x.s2", "n", "g", "v", "a.s"],
     ["a.id", "a.n", "x.g", "n", "g"]),
    ("a JOIN b x ON a.k = x.id JOIN c y ON x.g = y.id",
     ["a.id", "a.n", "x.g", "y.h", "n", "g", "h", "id", "a.s"],
     ["a.id", "a.n", "x.g", "y.h", "h"]),
    ("a JOIN c y ON y.h = a.n JOIN b x ON x.id = a.k",
     ["a.id", "a.n", "x.g", "y.h", "h", "a.s"],
     ["a.id", "y.h", "x.g"]),
    ("a JOIN b x ON zz = x.id", ["a.id", "x.g"], ["a.id"]),
    ("a JOIN a ON a.k = a.id", ["a.id", "a.n", "n"], ["a.id", "a.n"]),
    ("nope", ["id"], ["id"]),
]

text_value = st.one_of(word, st.sampled_from(["a%", "%b", "%", "A%c", "ab%"]))
number_value = st.one_of(
    st.integers(min_value=0, max_value=7), st.sampled_from([0.5, 2.0, 4.0])
)
any_value = st.one_of(number_value, text_value, st.none())


def _literal(item):
    if item is None:
        return "NULL"
    if isinstance(item, str):
        return "'" + item.replace("'", "''") + "'"
    return repr(item)


@st.composite
def operand(draw, params, column="?"):
    """A value as SQL text: a literal, or ``?`` with its parameter appended.

    Mostly of ``column``'s type, so that predicates match rows; now and
    then of any type, so that comparisons also raise ``TypeError``.
    """
    typed = text_value if column.rpartition(".")[2] in ("s", "s2") else number_value
    item = draw(typed if draw(st.integers(0, 7)) else any_value)
    if draw(st.booleans()):
        params.append(item)
        return "?"
    return _literal(item)


@st.composite
def conjunct(draw, names, params, depth=0):
    # Nesting matters: ``NOT (a.n = 1 OR x.g = 0)`` can reject a base row of
    # a join without ever reading the joined table's column.
    kind = draw(st.sampled_from(
        ["cmp", "cmp", "cmp", "eq", "eq", "between", "like", "in", "colcol"]
        + (["or", "not", "not"] if depth < 2 else [])
    ))
    column = draw(st.sampled_from(names))
    if kind == "eq":
        return f"{column} = {draw(operand(params, column))}"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
        if draw(st.integers(0, 5)) == 0:
            return f"{draw(operand(params, column))} {op} {column}"
        return f"{column} {op} {draw(operand(params, column))}"
    if kind == "between":
        low = draw(operand(params, column))
        return f"{column} BETWEEN {low} AND {draw(operand(params, column))}"
    if kind == "like":
        return f"{column} LIKE {draw(operand(params, 's'))}"
    if kind == "in":
        options = [draw(operand(params, column)) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.integers(0, 4)) == 0:
            options.append(draw(st.sampled_from(names)))
        return f"{column} IN ({', '.join(options)})"
    if kind == "colcol":
        return f"{column} = {draw(st.sampled_from(names))}"
    if kind == "not":
        return f"NOT {draw(conjunct(names, params, depth + 1))}"
    left = draw(conjunct(names, params, depth + 1))
    return f"({left} OR {draw(conjunct(names, params, depth + 1))})"


@st.composite
def where_clause(draw, names, params):
    count = draw(st.sampled_from([0, 1, 1, 1, 2, 2, 3]))
    parts = [draw(conjunct(names, params)) for _ in range(count)]
    return " WHERE " + " AND ".join(parts) if parts else ""


@st.composite
def select(draw):
    # The well-formed shapes three times as often as the broken ones.
    source, names, numeric = draw(st.sampled_from(SHAPES[:6] * 3 + SHAPES[6:]))
    params = []
    shape = draw(st.sampled_from(
        ["star", "star", "columns", "columns", "columns", "aggregate", "aggregate",
         "group", "group", "mixed"]
    ))
    tail = ""
    if shape == "star":
        items = "*"
    elif shape == "columns":
        picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        items = ", ".join(
            f"{name} AS c{i}" if draw(st.booleans()) else name
            for i, name in enumerate(picked)
        )
    else:
        functions = st.sampled_from(["COUNT", "MIN", "MAX", "SUM", "AVG"])
        folded = [
            f"{draw(functions)}({draw(st.sampled_from(numeric))}) AS f{i}"
            for i in range(draw(st.integers(0, 2)))
        ] + (["COUNT(*) AS total"] if draw(st.booleans()) else [])
        if not folded:
            folded = ["COUNT(*)"]
        if shape == "aggregate":
            items = ", ".join(folded)
        else:
            key = draw(st.sampled_from(names))
            items = ", ".join([key] + folded)
            if shape == "group":
                tail = f" GROUP BY {key}"
    where = draw(where_clause(names, params))
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["", " ASC", " DESC"]))
        order_names = names + ["total", "f0", "c0"]
        tail += f" ORDER BY {draw(st.sampled_from(order_names))}{direction}"
    if draw(st.integers(0, 3)) == 0:
        tail += f" LIMIT {draw(st.integers(0, 4))}"
    return f"SELECT {items} FROM {source}{where}{tail}", tuple(params)


@st.composite
def mutation(draw):
    params = []
    names = ["id", "k", "n", "f", "s", "v", "a.n", "zz"]
    kind = draw(st.sampled_from(["insert", "insert", "update", "update", "delete"]))
    if kind == "insert":
        row = (draw(st.integers(0, 15)), draw(small_int), draw(maybe_int),
               draw(maybe_float), draw(word), draw(maybe_int))
        return "INSERT INTO a (id, k, n, f, s, v) VALUES (?, ?, ?, ?, ?, ?)", row
    if kind == "update":
        column = draw(st.sampled_from(["k", "n", "f", "s", "v"]))
        assigned = {"k": small_int, "n": maybe_int, "f": maybe_float, "s": word, "v": maybe_int}
        params.append(draw(assigned[column]))
        sql = f"UPDATE a SET {column} = ?{draw(where_clause(names, params))}"
    else:
        sql = f"DELETE FROM a{draw(where_clause(names, params))}"
    if draw(st.integers(0, 9)) == 0:
        params = params[:-1] if params else [1]  # wrong arity
    return sql, tuple(params)


operation = st.one_of(
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), mutation()),
    st.tuples(st.just("explain"), st.one_of(select(), mutation())),
    st.tuples(st.just("force"), st.booleans()),
    st.tuples(st.just("create"), st.none()),  # table c arrives mid-sequence
)


def _outcome(call):
    try:
        return call()
    except Exception as error:  # compared, not swallowed: both sides must raise it
        return ("raised", type(error).__name__, str(error))


def _counters(executor):
    return tuple(getattr(executor, name) for name in COUNTERS)


def _moved(before, after):
    return tuple(b - a for a, b in zip(before, after))


def _load(tables, rows):
    for table, table_rows in zip(("a", "b", "c"), rows):
        names = [column.name for column in tables[table].schema.columns]
        tables[table].bulk_load(dict(zip(names, row)) for row in table_rows)


def _run_sequence(table_schemas, rows, operations):
    database = Database("prepared")
    twin = Database("reference")  # holds the reference executor's tables
    for schema in table_schemas[:2]:
        database.create_table(schema)
        twin.create_table(schema)
    reference = ReferenceExecutor(twin.tables)
    _load(database.tables, rows[:2])
    _load(twin.tables, rows[:2])
    plans = []  # (prepared result, the reference's eager plan)
    for op, argument in operations:
        if op == "force":
            database.executor.force_full_scans = argument
            reference.force_full_scans = argument
            continue
        if op == "create":
            if "c" not in database.tables:
                database.create_table(table_schemas[2])
                twin.create_table(table_schemas[2])
                for tables in (database.tables, twin.tables):
                    tables["c"].bulk_load({"id": key, "h": h} for key, h in rows[2])
            continue
        sql, params = argument
        if op == "explain":
            got = _outcome(lambda: database.explain(sql, params).render())
            want = _outcome(lambda: reference.explain(parse_cached(sql), params).render())
            if "raised" in (got[0], want[0]):
                # Both must refuse, but not for the same reason in the same
                # order: prepare binds tables before it counts parameters.
                assert got[0] == want[0] == "raised", (sql, params, got, want)
            else:
                assert got == want, (sql, params)
            continue
        before = _counters(database.executor), _counters(reference)
        got = _outcome(lambda: database.execute(sql, params))
        want = _outcome(lambda: reference.execute(parse_cached(sql), params))
        if isinstance(got, tuple) and got[2].startswith("no such table"):
            # The one reordering: tables are bound at prepare, ahead of
            # whatever else the statement would have tripped over first.
            assert isinstance(want, tuple), (sql, params, got, want)
            continue
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want, (sql, params, got, want)
            continue
        context = (sql, params)
        assert got.rows == want.rows, context
        assert got.columns == want.columns, context
        assert got.rows_scanned == want.rows_scanned, context
        assert got.used_index == want.used_index, context
        assert got.affected == want.affected, context
        assert _moved(before[0], _counters(database.executor)) == _moved(
            before[1], _counters(reference)
        ), context
        plans.append((got, want.plan, context))
    # Read last, after every later insert, update and delete: the lazy plan
    # must still describe the table as it was when its statement ran.
    for got, want_plan, context in plans:
        if want_plan is None:
            assert got.plan is None, context
            continue
        assert got.plan.render() == want_plan.render(), context
        assert got.plan.as_dict() == want_plan.as_dict(), context
        assert got.explain() == want_plan.render(), context
    for name, table in database.tables.items():
        assert list(table.scan()) == list(twin.tables[name].scan()), name


sequences = dict(
    table_schemas=schemas(),
    rows=st.tuples(a_rows, b_rows, c_rows),
    operations=st.lists(operation, min_size=1, max_size=14),
    c_first=st.sampled_from([True, True, True, False]),
)


def check_sequence(table_schemas, rows, operations, c_first):
    if c_first:
        operations = [("create", None)] + operations
    _run_sequence(table_schemas, rows, operations)


test_prepared_statements_equal_the_reference_executor = settings(
    max_examples=250, deadline=None
)(given(**sequences)(check_sequence))


def test_the_same_statement_repeated_over_a_changing_table():
    """A warm entry re-run as the table grows and shrinks, plans read last."""
    schema = TableSchema("a", A_COLUMNS, "id", indexes=["k", "s"])
    other = TableSchema("b", B_COLUMNS, "id", indexes=["g"])
    third = TableSchema("c", C_COLUMNS, "id")
    point = ("SELECT * FROM a WHERE k = ?", (1,))
    ranged = ("SELECT id, s FROM a WHERE id BETWEEN ? AND ? AND k = ?", (0, 9, 1))
    prefix = ("SELECT id FROM a WHERE s LIKE ? ORDER BY id DESC", ("a%",))
    join = ("SELECT a.id, x.g FROM a JOIN b x ON a.k = x.id WHERE a.k = ? AND x.g = ?", (1, 0))
    operations = []
    for key in range(8):
        operations.append(
            ("execute", ("INSERT INTO a (id, k, n, f, s, v) VALUES (?, ?, ?, ?, ?, ?)",
                         (key, key % 2, None, None, WORDS[key % len(WORDS)], key)))
        )
        operations += [("execute", point), ("execute", ranged), ("execute", prefix),
                       ("execute", join), ("explain", ranged)]
        if key == 3:
            operations.append(("force", True))
        if key == 5:
            operations += [("force", False), ("create", None)]
    operations.append(("execute", ("DELETE FROM a WHERE k = ?", (1,))))
    operations += [("execute", point), ("execute", join)]
    _run_sequence(
        (schema, other, third),
        ([], [(0, 0, "a", None), (1, 0, "b", 2)], [(0, 1)]),
        operations,
    )
