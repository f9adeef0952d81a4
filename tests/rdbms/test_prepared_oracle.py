"""Prepared statements against a reference executor.

``reference_executor.py`` re-reads every statement on every execution
and evaluates its conditions with the tree walker.  Over generated
schemas, index sets, table sizes (empty included), dialect statements and
parameters, a prepared statement must return the same rows, columns,
``rows_scanned`` and ``used_index``, move the five executor counters by
the same amounts, and raise the same error at the same statement.
``force_full_scans`` is flipped on a warm cache and a ``create_table``
lands mid-sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.sql import parse_cached
from repro.rdbms.types import FLOAT, INTEGER, TEXT

from .reference_executor import Executor as ReferenceExecutor

COUNTERS = (
    "index_scans", "full_scans", "range_scans", "join_index_lookups", "join_full_scans",
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
# A FROM clause and the names a WHERE or select list may use with it
# (proven, ambiguous, wrongly qualified and unknown ones alike).
SHAPES = [
    ("a", ["id", "k", "n", "f", "s", "v", "a.id", "a.n", "x.s", "zz", "b.g"]),
    ("a JOIN b x ON a.k = x.id",
     ["a.id", "a.n", "a.s", "a.v", "x.g", "x.s2", "x.v", "x.id", "n", "g", "k",
      "id", "v", "zz", "q.n", "s", "s2"]),
    ("a JOIN b ON b.id = k",
     ["a.id", "a.n", "b.g", "b.s2", "n", "g", "id", "a.s", "b.v"]),
    ("a JOIN b x ON a.v = x.v",
     ["a.id", "a.n", "x.g", "x.s2", "n", "g", "v", "a.s"]),
    ("a JOIN c y ON y.h = a.n", ["a.id", "a.n", "y.h", "h", "id", "a.s"]),
    ("a JOIN b x ON zz = x.id", ["a.id", "x.g"]),
    ("a JOIN a ON a.k = a.id", ["a.id", "a.n", "n"]),
    ("nope", ["id"]),
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
    then of any type, so that BETWEEN also raises ``TypeError``.
    """
    typed = text_value if column.rpartition(".")[2] in ("s", "s2") else number_value
    item = draw(typed if draw(st.integers(0, 7)) else any_value)
    if draw(st.booleans()):
        params.append(item)
        return "?"
    return _literal(item)


@st.composite
def predicate(draw, names, params):
    kind = draw(st.sampled_from(["eq", "eq", "eq", "between", "between", "like"]))
    column = draw(st.sampled_from(names))
    if kind == "eq":
        return f"{column} = {draw(operand(params, column))}"
    if kind == "between":
        low = draw(operand(params, column))
        return f"{column} BETWEEN {low} AND {draw(operand(params, column))}"
    return f"{column} LIKE {draw(operand(params, 's'))}"


@st.composite
def condition(draw, names, params):
    """An OR of ANDs, mostly a single conjunction."""
    disjuncts = draw(st.sampled_from([1, 1, 1, 2]))
    return " OR ".join(
        " AND ".join(
            draw(predicate(names, params)) for _ in range(draw(st.integers(1, 3)))
        )
        for _ in range(disjuncts)
    )


@st.composite
def select(draw):
    # The well-formed shapes three times as often as the broken ones.
    source, names = draw(st.sampled_from(SHAPES[:5] * 3 + SHAPES[5:]))
    params = []
    shape = draw(st.sampled_from(["star", "star", "columns", "columns", "count"]))
    if shape == "star":
        items = "*"
    elif shape == "columns":
        items = ", ".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    else:
        items = draw(st.sampled_from(["COUNT(*)", "COUNT(*) AS total"]))
    where = ""
    if draw(st.sampled_from([False, True, True, True])):
        where = " WHERE " + draw(condition(names, params))
    return f"SELECT {items} FROM {source}{where}", tuple(params)


@st.composite
def mutation(draw):
    params = []
    names = ["id", "k", "n", "f", "s", "v", "a.n", "zz"]
    if draw(st.booleans()):
        row = (draw(st.integers(0, 15)), draw(small_int), draw(maybe_int),
               draw(maybe_float), draw(word), draw(maybe_int))
        return "INSERT INTO a (id, k, n, f, s, v) VALUES (?, ?, ?, ?, ?, ?)", row
    column = draw(st.sampled_from(["k", "n", "f", "s", "v"]))
    assigned = {"k": small_int, "n": maybe_int, "f": maybe_float, "s": word, "v": maybe_int}
    params.append(draw(assigned[column]))
    sql = f"UPDATE a SET {column} = ? WHERE {draw(condition(names, params))}"
    if draw(st.integers(0, 9)) == 0:
        params = params[:-1] if params else [1]  # wrong arity
    return sql, tuple(params)


operation = st.one_of(
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), select()),
    st.tuples(st.just("execute"), mutation()),
    st.tuples(st.just("force"), st.booleans()),
    st.tuples(st.just("create"), st.none()),  # table c arrives mid-sequence
)


def _outcome(call):
    try:
        return call()
    except TypeError as error:  # BETWEEN over values that do not compare:
        # where the key order answers, bisect words the error its own way.
        return ("raised", "TypeError")
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
        before = _counters(database.executor), _counters(reference)
        got = _outcome(lambda: database.execute(sql, params))
        want = _outcome(lambda: reference.execute(parse_cached(sql), params))
        if isinstance(got, tuple) and got[-1].startswith("no such table"):
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
    """A warm entry re-run as the table grows and changes."""
    schema = TableSchema("a", A_COLUMNS, "id", indexes=["k", "s"])
    other = TableSchema("b", B_COLUMNS, "id", indexes=["g"])
    third = TableSchema("c", C_COLUMNS, "id")
    point = ("SELECT * FROM a WHERE k = ?", (1,))
    ranged = ("SELECT id, s FROM a WHERE id BETWEEN ? AND ? AND n = ?", (0, 9, None))
    pattern = ("SELECT id FROM a WHERE s LIKE ? OR v = ?", ("a%", 3))
    join = ("SELECT a.id, x.g FROM a JOIN b x ON a.k = x.id WHERE a.k = ? AND x.g = ?", (1, 0))
    operations = []
    for key in range(8):
        operations.append(
            ("execute", ("INSERT INTO a (id, k, n, f, s, v) VALUES (?, ?, ?, ?, ?, ?)",
                         (key, key % 2, None, None, WORDS[key % len(WORDS)], key)))
        )
        operations += [("execute", point), ("execute", ranged), ("execute", pattern),
                       ("execute", join)]
        if key == 3:
            operations.append(("force", True))
        if key == 5:
            operations += [("force", False), ("create", None)]
    operations.append(("execute", ("UPDATE a SET k = ? WHERE k = ?", (0, 1))))
    operations += [("execute", point), ("execute", join), ("execute", ranged)]
    _run_sequence(
        (schema, other, third),
        ([], [(0, 0, "a", None), (1, 0, "b", 2)], [(0, 1)]),
        operations,
    )
