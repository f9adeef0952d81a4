"""Compiled closures must reproduce the tree-walking evaluator exactly.

Every condition shape the dialect produces (Equals, Between and Like
against literals and parameters, And/Or, qualified and bare column
names) is evaluated both ways over rows that include NULLs, missing
columns, and ambiguous qualified keys.  "Equivalent" includes raising
the same :class:`EvaluationError` with the same message — the executor's
post-join pass raises exactly those on a name it cannot place.
"""

import pytest

from repro.apps.petstore.schema import petstore_schemas
from repro.apps.rubis.schema import rubis_schemas
from repro.rdbms.compiler import column_lookup, compile_expression, resolves
from repro.rdbms.engine import Database
from repro.rdbms.expressions import (
    And,
    Between,
    ColumnRef,
    Equals,
    EvaluationError,
    Expression,
    Like,
    Literal,
    Or,
    Parameter,
)
from repro.rdbms.sql import SqlError, parse, parse_cached

from .tree_walker import bind_parameters, evaluate

# Rows covering: empty, NULLs, qualified keys, bare/qualified aliasing,
# ambiguity, and plain data.
ROWS = [
    {},
    {"id": 1, "name": "fido", "price": 10.0, "qty": None},
    {"id": None, "name": None, "price": None, "qty": 0},
    {"id": 2, "name": "Rex", "price": 22.5, "qty": 3},
    {"id": 3, "name": "rex hound", "price": 5.0, "qty": 1},
    {"t.id": 5, "t.name": "lizard", "t.price": 7.5},
    {"a.id": 1, "b.id": 2},  # bare "id" is ambiguous here
    {"t.id": 7, "id": 9, "name": "direct"},  # bare key shadows qualified
]

_RAISED = "<<raised>>"


def _outcome(fn):
    try:
        return fn()
    except EvaluationError as exc:
        return (_RAISED, str(exc))


# The rows that have exactly these keys: names proven against them read
# ``row[key]`` directly, every other name keeps the searching lookup.
_PROVEN = {"id", "name", "price", "qty"}
_PROVEN_ROWS = [row for row in ROWS if set(row) == _PROVEN]


def _prove(name):
    return name if name in _PROVEN else None


def assert_equivalent(expression, params=(), rows=ROWS):
    walker = bind_parameters(expression, params)
    run = compile_expression(expression)
    for row in rows:
        tree = _outcome(lambda: evaluate(walker, row))
        fast = _outcome(lambda: run(row, params))
        assert fast == tree, (expression, row, params, tree, fast)
    proven = compile_expression(expression, _prove)
    for row in _PROVEN_ROWS:
        tree = _outcome(lambda: evaluate(walker, row))
        fast = _outcome(lambda: proven(row, params))
        assert fast == tree, (expression, row, params, tree, fast)


# ---------------------------------------------------------------------------
# Every comparison SQL offers: the dialect's three predicates compile to
# closures equal to the tree walk; the other operators never reach the
# compiler, because the parser refuses them.
# ---------------------------------------------------------------------------

PREDICATES = {
    "=": lambda column, value: Equals(column, value),
    "BETWEEN": lambda column, value: Between(column, Literal(0), value),
    "LIKE": lambda column, value: Like(column, value),
}
OPERATORS = sorted(PREDICATES) + ["!=", "<", "<=", ">", ">="]


def _refused(operator):
    """True, after checking the parser refuses it, for a non-dialect operator."""
    if operator in PREDICATES:
        return False
    with pytest.raises(SqlError, match="unexpected character"):
        parse(f"SELECT * FROM t WHERE id {operator} ?")
    return True


@pytest.mark.parametrize("operator", OPERATORS)
def test_every_operator_against_literal(operator):
    if _refused(operator):
        return
    for column, value in (("id", 2), ("id", 2.5), ("price", 10), ("name", "%e%")):
        if operator == "BETWEEN" and column == "name":
            continue  # 0 <= 'rex' does not compare
        assert_equivalent(PREDICATES[operator](ColumnRef(column), Literal(value)))


@pytest.mark.parametrize("operator", OPERATORS)
def test_every_operator_against_parameter(operator):
    if _refused(operator):
        return
    assert_equivalent(PREDICATES[operator](ColumnRef("price"), Parameter(0)), (10.0,))
    if operator != "BETWEEN":  # 0 <= 'rex' does not compare
        assert_equivalent(PREDICATES[operator](ColumnRef("name"), Parameter(0)), ("rex",))


@pytest.mark.parametrize("operator", OPERATORS)
def test_every_operator_null_literal(operator):
    """A NULL bound collapses to False, never raises."""
    if _refused(operator):
        return
    assert_equivalent(PREDICATES[operator](ColumnRef("id"), Literal(None)))
    assert_equivalent(Between(ColumnRef("id"), Literal(0), Parameter(0)), (None,))


def test_comparison_column_to_column():
    # A WHERE compares a column with ``?`` or a literal, never a column.
    with pytest.raises(SqlError, match="expected \\? or a literal"):
        parse("SELECT * FROM t WHERE id = qty")


def test_comparison_missing_column_raises_identically():
    assert_equivalent(Equals(ColumnRef("nope"), Literal(1)))
    # The column reads (and raises) even when the bound is NULL.
    assert_equivalent(Equals(ColumnRef("nope"), Literal(None)))
    assert_equivalent(Between(ColumnRef("nope"), Literal(None), Literal(None)))


# ---------------------------------------------------------------------------
# And / Or, including short-circuit order
# ---------------------------------------------------------------------------


def test_conjunction_disjunction_negation():
    ge = Between(ColumnRef("id"), Literal(1), Literal(9))
    eq = Equals(ColumnRef("price"), Parameter(0))
    assert_equivalent(And((ge, eq)), (22.5,))
    assert_equivalent(Or((ge, eq)), (22.5,))
    assert_equivalent(Or((And((ge, eq)), Like(ColumnRef("name"), Parameter(1)))), (5.0, "%o%"))
    # There is no negation to compile: NOT is refused at parse.
    with pytest.raises(SqlError):
        parse("SELECT * FROM t WHERE NOT id = 1")


def test_short_circuit_skips_raising_part():
    """A False left arm must suppress a missing column on the right."""
    rows = [row for row in ROWS if "id" in row]
    boom = Equals(ColumnRef("nope"), Literal(1))
    false = Equals(ColumnRef("id"), Literal(None))
    true = Between(ColumnRef("id"), Literal(-1), Literal(99))
    assert_equivalent(And((false, boom)), rows=rows)  # short-circuits: False, no raise
    assert_equivalent(Or((true, boom)), rows=rows)  # True where id is set, no raise
    assert_equivalent(And((true, boom)), rows=rows)  # must reach boom and raise
    assert_equivalent(Or((false, boom)), rows=rows)  # must reach boom and raise


# ---------------------------------------------------------------------------
# Like: constant pattern, dynamic pattern, NULLs
# ---------------------------------------------------------------------------


def test_like_constant_pattern():
    assert_equivalent(Like(ColumnRef("name"), Literal("%Rex%")))
    assert_equivalent(Like(ColumnRef("name"), Literal("fido")))
    assert_equivalent(Like(ColumnRef("name"), Literal("r%x%d")))


def test_like_parameter_pattern():
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), ("%RE%",))
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), ("",))
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), ("rex%",))


def test_like_null_pattern_is_false():
    assert_equivalent(Like(ColumnRef("name"), Literal(None)))
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), (None,))


def test_like_non_string_value_stringified():
    assert_equivalent(Like(ColumnRef("id"), Literal("%2%")))


# ---------------------------------------------------------------------------
# Column reference resolution: qualified, bare, fallback, ambiguity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["id", "name", "t.id", "t.name", "a.id", "b.id", "nope", "t.nope", "x.qty"],
)
def test_column_resolution_matches_tree_walker(name):
    lookup = column_lookup(name)
    for row in ROWS:
        tree = _outcome(lambda: evaluate(ColumnRef(name), row))
        assert _outcome(lambda: lookup(row)) == tree, (name, row)
    assert_equivalent(Equals(ColumnRef(name), Literal(1)))


def test_parameter_environment_binding():
    run = compile_expression(Equals(ColumnRef("id"), Parameter(0)))
    assert run({"id": 7}, (7,)) is True
    assert run({"id": 7}, (8,)) is False
    # Same compiled closure, new params: no recompilation or tree rewrite.
    assert run({"id": "a"}, ("a",)) is True


# ---------------------------------------------------------------------------
# Proven columns and unknown nodes
# ---------------------------------------------------------------------------


def test_resolves_needs_every_column_proven():
    proven = Equals(ColumnRef("id"), Parameter(0))
    assert resolves(proven, _prove)
    assert resolves(And((proven, Like(ColumnRef("name"), Literal("a%")))), _prove)
    unproven = Equals(ColumnRef("t.id"), Parameter(0))
    assert not resolves(unproven, _prove)
    assert not resolves(Or((proven, And((proven, unproven)))), _prove)


def test_resolves_never_proves_an_unknown_node():
    class Opaque(Expression):
        def evaluate(self, row):
            return row["id"]

    assert not resolves(Opaque(), _prove)
    assert not resolves(And((Opaque(),)), _prove)


def test_proven_column_compare_is_one_closure_over_the_row_key():
    run = compile_expression(
        Between(ColumnRef("x.id"), Parameter(0), Literal(9)), {"x.id": "id"}.get
    )
    assert run({"id": 3}, (2,)) is True
    assert run({"id": 3}, (4,)) is False
    assert run({"id": None}, (3,)) is False and run({"id": 3}, (None,)) is False
    # The searching lookup is what an unproven name still gets.
    searching = compile_expression(Equals(ColumnRef("x.id"), Literal(9)), lambda name: None)
    assert searching({"x.id": 9}, ()) is True
    assert column_lookup("x.id")({"x.id": 9}) == 9


def test_unknown_node_is_refused():
    class Always42(Expression):
        pass

    with pytest.raises(TypeError, match="Always42"):
        compile_expression(Always42())


# ---------------------------------------------------------------------------
# End to end over both application schemas: executor results must equal a
# tree-walking filter of the full table.
# ---------------------------------------------------------------------------


@pytest.fixture
def petstore_db():
    db = Database("petstore")
    for schema in petstore_schemas():
        db.create_table(schema)
    for i in range(3):
        db.execute(
            "INSERT INTO category (id, name, description) VALUES (?, ?, ?)",
            (i, f"cat-{i}", f"category {i}"),
        )
    for i in range(6):
        db.execute(
            "INSERT INTO product (id, category_id, name, description) VALUES (?, ?, ?, ?)",
            (i, i % 3, f"product-{i}", "desc"),
        )
    for i in range(12):
        db.execute(
            "INSERT INTO item (id, product_id, name, list_price, unit_cost, description)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (i, i % 6, f"item {'fish' if i % 4 == 0 else i}", 10.0 + i, 5.0, "d"),
        )
    return db


@pytest.fixture
def rubis_db():
    db = Database("rubis")
    for schema in rubis_schemas():
        db.create_table(schema)
    db.execute("INSERT INTO regions (id, name) VALUES (?, ?)", (0, "east"))
    for i in range(2):
        db.execute("INSERT INTO categories (id, name) VALUES (?, ?)", (i, f"c{i}"))
    for i in range(4):
        db.execute(
            "INSERT INTO users (id, nickname, password, email, region_id)"
            " VALUES (?, ?, ?, ?, ?)",
            (i, f"user{i}", "pw", f"u{i}@x", 0),
        )
    for i in range(8):
        db.execute(
            "INSERT INTO items (id, name, description, initial_price, quantity,"
            " nb_of_bids, seller, category) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (i, f"item{i}", "d", 5.0 + i, 1, i % 3, i % 4, i % 2),
        )
    return db


def _assert_select_matches_tree_walk(db, table, sql, params):
    statement = parse_cached(sql)
    where = bind_parameters(statement.where, params)
    everything = db.execute(f"SELECT * FROM {table}").rows
    expected = [row for row in everything if where is None or evaluate(where, row)]
    assert db.execute(sql, params).rows == expected


@pytest.mark.parametrize(
    "table, sql, params",
    [
        ("product", "SELECT * FROM product WHERE category_id = ?", (1,)),
        ("item", "SELECT * FROM item WHERE name LIKE ?", ("%fish%",)),
        (
            "item",
            "SELECT * FROM item WHERE list_price BETWEEN ? AND ? AND product_id = ?",
            (12.0, 30.0, 2),
        ),
        ("item", "SELECT * FROM item WHERE product_id = ? OR product_id = ?", (0, 5)),
        ("category", "SELECT * FROM category WHERE id = 99", ()),
    ],
)
def test_petstore_statements_match_tree_walker(petstore_db, table, sql, params):
    _assert_select_matches_tree_walk(petstore_db, table, sql, params)


@pytest.mark.parametrize(
    "table, sql, params",
    [
        ("items", "SELECT * FROM items WHERE category = ?", (1,)),
        ("items", "SELECT * FROM items WHERE seller = ? AND nb_of_bids = ?", (2, 2)),
        ("items", "SELECT * FROM items WHERE reserve_price = ?", (0.0,)),  # all NULL
        ("users", "SELECT * FROM users WHERE nickname LIKE ?", ("%USER1%",)),
        (
            "users",
            "SELECT * FROM users WHERE region_id = ? AND id BETWEEN ? AND ?",
            (0, 1, 2),
        ),
    ],
)
def test_rubis_statements_match_tree_walker(rubis_db, table, sql, params):
    _assert_select_matches_tree_walk(rubis_db, table, sql, params)
