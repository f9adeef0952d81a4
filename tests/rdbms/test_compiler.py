"""Compiled closures must reproduce the tree-walking evaluator exactly.

Every expression shape the SQL layer produces (Comparison over all
operators, And/Or/Not, InList, Like, Parameter, qualified and bare
ColumnRefs) is evaluated both ways over rows that include NULLs, missing
columns, and ambiguous qualified keys.  "Equivalent" includes raising
the same :class:`EvaluationError` with the same message — the executor's
join pass depends on those errors to defer predicates.
"""

import pytest

from repro.apps.petstore.schema import petstore_schemas
from repro.apps.rubis.schema import rubis_schemas
from repro.rdbms.compiler import (
    EMPTY_ROW,
    column_lookup,
    compile_expression,
    resolves,
)
from repro.rdbms.engine import Database
from repro.rdbms.expressions import (
    _OPERATORS,
    And,
    ColumnRef,
    Comparison,
    EvaluationError,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.rdbms.sql import parse_cached

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
# Comparison: every operator, NULLs on either side, parameters, columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("operator", sorted(_OPERATORS))
def test_every_operator_against_literal(operator):
    assert_equivalent(Comparison(ColumnRef("id"), operator, Literal(2)))


@pytest.mark.parametrize("operator", sorted(_OPERATORS))
def test_every_operator_against_parameter(operator):
    assert_equivalent(Comparison(ColumnRef("price"), operator, Parameter(0)), (10.0,))


@pytest.mark.parametrize("operator", sorted(_OPERATORS))
def test_every_operator_null_literal(operator):
    """NULL on either side collapses to False, never raises."""
    assert_equivalent(Comparison(ColumnRef("id"), operator, Literal(None)))
    assert_equivalent(Comparison(Literal(None), operator, ColumnRef("id")))


def test_comparison_column_to_column():
    assert_equivalent(Comparison(ColumnRef("id"), "<", ColumnRef("qty")))


def test_comparison_missing_column_raises_identically():
    assert_equivalent(Comparison(ColumnRef("nope"), "=", Literal(1)))
    # Right side must evaluate (and raise) even when the left is NULL.
    assert_equivalent(Comparison(Literal(None), "=", ColumnRef("nope")))


# ---------------------------------------------------------------------------
# And / Or / Not, including short-circuit order
# ---------------------------------------------------------------------------


def test_conjunction_disjunction_negation():
    ge = Comparison(ColumnRef("id"), ">=", Literal(1))
    lt = Comparison(ColumnRef("price"), "<", Parameter(0))
    assert_equivalent(And((ge, lt)), (20.0,))
    assert_equivalent(Or((ge, lt)), (20.0,))
    assert_equivalent(Not(ge))
    assert_equivalent(Not(And((ge, Not(lt)))), (20.0,))


def test_short_circuit_skips_raising_part():
    """A False left arm must suppress a missing column on the right."""
    boom = Comparison(ColumnRef("nope"), "=", Literal(1))
    false = Comparison(Literal(1), "=", Literal(2))
    true = Comparison(Literal(1), "=", Literal(1))
    assert_equivalent(And((false, boom)))  # short-circuits: False, no raise
    assert_equivalent(Or((true, boom)))  # short-circuits: True, no raise
    assert_equivalent(And((true, boom)))  # must reach boom and raise
    assert_equivalent(Or((false, boom)))  # must reach boom and raise


# ---------------------------------------------------------------------------
# InList: literal fold, NULL membership, parameter options, raising column
# ---------------------------------------------------------------------------


def test_in_list_of_literals():
    assert_equivalent(InList(ColumnRef("id"), (Literal(1), Literal(3), Literal(99))))


def test_in_list_null_option_matches_null_value():
    """The tree-walker's pairwise == treats NULL == NULL as a match."""
    assert_equivalent(InList(ColumnRef("qty"), (Literal(None), Literal(99))))


def test_in_list_with_parameter_options():
    expr = InList(ColumnRef("id"), (Parameter(0), Literal(2), Parameter(1)))
    assert_equivalent(expr, (1, 3))


def test_in_list_missing_column_raises():
    assert_equivalent(InList(ColumnRef("nope"), (Literal(1),)))


# ---------------------------------------------------------------------------
# Like: constant-folded needle, dynamic pattern, NULLs
# ---------------------------------------------------------------------------


def test_like_constant_pattern():
    assert_equivalent(Like(ColumnRef("name"), Literal("%Rex%")))
    assert_equivalent(Like(ColumnRef("name"), Literal("fido")))


def test_like_parameter_pattern():
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), ("%RE%",))
    assert_equivalent(Like(ColumnRef("name"), Parameter(0)), ("",))


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
    assert_equivalent(ColumnRef(name))


def test_parameter_environment_binding():
    run = compile_expression(Comparison(Parameter(0), "=", Parameter(1)))
    assert run(EMPTY_ROW, (7, 7)) is True
    assert run(EMPTY_ROW, (7, 8)) is False
    # Same compiled closure, new params: no recompilation or tree rewrite.
    assert run(EMPTY_ROW, ("a", "a")) is True


# ---------------------------------------------------------------------------
# Proven columns and the unknown-node fallback
# ---------------------------------------------------------------------------


def test_resolves_needs_every_column_proven():
    proven = Comparison(ColumnRef("id"), "=", Parameter(0))
    assert resolves(proven, _prove)
    assert resolves(And((proven, Like(ColumnRef("name"), Literal("a%")))), _prove)
    assert resolves(Comparison(Literal(1), "=", Literal(1)), _prove)  # no columns
    unproven = Comparison(ColumnRef("t.id"), "=", Parameter(0))
    assert not resolves(unproven, _prove)
    assert not resolves(Or((proven, Not(unproven))), _prove)
    assert not resolves(InList(ColumnRef("id"), (Literal(1), ColumnRef("nope"))), _prove)


def test_resolves_never_proves_an_unknown_node():
    class Opaque(Expression):
        def evaluate(self, row):
            return row["id"]

    assert not resolves(Opaque(), _prove)
    assert not resolves(And((Opaque(),)), _prove)


def test_proven_column_compare_is_one_closure_over_the_row_key():
    run = compile_expression(Comparison(ColumnRef("x.id"), ">", Parameter(0)), {"x.id": "id"}.get)
    assert run({"id": 3}, (2,)) is True
    assert run({"id": 3}, (3,)) is False
    assert run({"id": None}, (3,)) is False and run({"id": 3}, (None,)) is False
    # The searching lookup is what an unproven name still gets.
    searching = compile_expression(ColumnRef("x.id"), lambda name: None)
    assert searching({"x.id": 9}, ()) == column_lookup("x.id")({"x.id": 9}, ()) == 9


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
        ("item", "SELECT * FROM item WHERE list_price > ? AND product_id = ?", (12.0, 2)),
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
        ("items", "SELECT * FROM items WHERE seller = ? AND nb_of_bids >= ?", (2, 1)),
        ("items", "SELECT * FROM items WHERE reserve_price > ?", (0.0,)),  # all NULL
        ("users", "SELECT * FROM users WHERE nickname LIKE ?", ("%USER1%",)),
        ("users", "SELECT * FROM users WHERE region_id = ? AND id != ?", (0, 2)),
    ],
)
def test_rubis_statements_match_tree_walker(rubis_db, table, sql, params):
    _assert_select_matches_tree_walk(rubis_db, table, sql, params)
