"""Unit tests for the SQL lexer/parser."""

import pytest

from repro.rdbms.expressions import (
    And,
    Between,
    ColumnRef,
    Equals,
    Like,
    Literal,
    Or,
    Parameter,
)
from repro.rdbms.sql import (
    Insert,
    Select,
    SqlError,
    Update,
    parse,
    parse_cached,
)

from .tree_walker import evaluate


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


def test_select_star():
    statement = parse("SELECT * FROM items")
    assert isinstance(statement, Select)
    assert statement.columns == () and statement.count is None
    assert statement.table.name == "items"
    assert statement.where is None


def test_select_where_equality_parameter():
    statement = parse("SELECT * FROM items WHERE category_id = ?")
    assert statement.where == Equals(ColumnRef("category_id"), Parameter(0))


def test_select_where_and_or_precedence():
    statement = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
    assert isinstance(statement.where, Or)
    assert isinstance(statement.where.parts[1], And)


def test_select_like():
    statement = parse("SELECT * FROM item WHERE name LIKE '%fish%'")
    assert isinstance(statement.where, Like)
    assert statement.where.pattern == Literal("%fish%")


def test_select_between():
    statement = parse("SELECT id FROM items WHERE id BETWEEN ? AND ? AND a = ?")
    between, equals = statement.where.parts
    assert between == Between(ColumnRef("id"), Parameter(0), Parameter(1))
    assert equals == Equals(ColumnRef("a"), Parameter(2))


def test_select_aggregates():
    statement = parse("SELECT COUNT(*) AS n FROM bids WHERE item_id = ?")
    assert statement.count == "n" and statement.columns == ()
    assert parse("SELECT COUNT(*) FROM bids").count == "count(*)"
    assert parse("SELECT count FROM t").columns == ("count",)  # only COUNT( counts


def test_select_join():
    statement = parse(
        "SELECT b.bid, u.nickname FROM bids b JOIN users u ON b.user_id = u.id "
        "WHERE b.item_id = ?"
    )
    assert statement.columns == ("b.bid", "u.nickname")
    assert statement.table.alias == "b"
    join = statement.join
    assert join.table.binding == "u"
    assert (join.left_column, join.right_column) == ("b.user_id", "u.id")
    assert statement.tables() == ["bids", "users"]


def test_select_columns_with_aliases():
    # Column aliases are out of the dialect; only COUNT(*) takes one.
    with pytest.raises(SqlError, match="expected FROM"):
        parse("SELECT id, name AS label FROM items")


def test_select_where_not_and_parentheses():
    with pytest.raises(SqlError):
        parse("SELECT * FROM t WHERE NOT a = 1")
    with pytest.raises(SqlError):
        parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")


def test_select_in_list():
    with pytest.raises(SqlError, match="expected =, LIKE or BETWEEN"):
        parse("SELECT * FROM t WHERE id IN (1, 2, 3)")


def test_select_order_by_and_limit():
    with pytest.raises(SqlError, match="trailing tokens"):
        parse("SELECT * FROM t WHERE a = 1 ORDER BY price DESC")
    # LIMIT is reserved, so it cannot be read as the table's alias either.
    with pytest.raises(SqlError, match="trailing tokens"):
        parse("SELECT * FROM t LIMIT 10")


def test_select_inner_join_keyword():
    # INNER is reserved: it is neither a join keyword nor an alias.
    with pytest.raises(SqlError, match="trailing tokens"):
        parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")


def test_join_non_equality_rejected():
    with pytest.raises(SqlError):
        parse("SELECT * FROM a JOIN b ON a.x < b.y")


def test_string_literal_escaping():
    statement = parse("SELECT * FROM t WHERE name = 'it''s'")
    assert statement.where.value == Literal("it's")


def test_null_true_false_literals():
    statement = parse("SELECT * FROM t WHERE a = NULL OR b = TRUE OR c = FALSE")
    literals = [part.value.value for part in statement.where.parts]
    assert literals == [None, True, False]


def test_parameters_numbered_in_order():
    statement = parse("SELECT * FROM t WHERE a = ? AND b = ?")
    params = [part.value for part in statement.where.parts]
    assert params == [Parameter(0), Parameter(1)]


# ---------------------------------------------------------------------------
# INSERT / UPDATE
# ---------------------------------------------------------------------------


def test_insert():
    statement = parse("INSERT INTO t (id, name) VALUES (?, 'x')")
    assert isinstance(statement, Insert)
    assert statement.columns == ("id", "name")
    assert statement.values == (Parameter(0), Literal("x"))


def test_insert_count_mismatch_rejected():
    with pytest.raises(SqlError):
        parse("INSERT INTO t (id, name) VALUES (1)")


def test_update():
    statement = parse("UPDATE t SET a = 1, b = ? WHERE id = ?")
    assert isinstance(statement, Update)
    assert statement.assignments == (("a", Literal(1)), ("b", Parameter(0)))
    assert statement.where.value == Parameter(1)


def test_delete():
    with pytest.raises(SqlError, match="expected SELECT, INSERT or UPDATE"):
        parse("DELETE FROM t WHERE id = 5")


def test_delete_without_where():
    with pytest.raises(SqlError, match="expected SELECT, INSERT or UPDATE"):
        parse("DELETE FROM t")
    # Nor may an UPDATE go without one.
    with pytest.raises(SqlError, match="expected WHERE"):
        parse("UPDATE t SET a = 1")


# ---------------------------------------------------------------------------
# Errors and caching
# ---------------------------------------------------------------------------


def test_unsupported_statement_rejected():
    with pytest.raises(SqlError):
        parse("CREATE TABLE t (id INTEGER)")


def test_trailing_tokens_rejected():
    with pytest.raises(SqlError):
        parse("SELECT * FROM t garbage garbage")


def test_unexpected_character_rejected():
    with pytest.raises(SqlError):
        parse("SELECT * FROM t WHERE a = #")


def test_keywords_case_insensitive():
    statement = parse("select count(*) as n from t join u x on t.a = x.b where a like ?")
    assert isinstance(statement, Select)
    assert statement.count == "n" and statement.join.table.alias == "x"


def test_parse_cached_returns_same_ast():
    first = parse_cached("SELECT * FROM cache_me WHERE id = ?")
    second = parse_cached("SELECT * FROM cache_me WHERE id = ?")
    assert first is second


def test_parse_cache_keeps_admitting_past_its_capacity(monkeypatch):
    """Regression: the cache was a dict that stopped admitting at 4,096
    texts, so a long process silently re-parsed every later statement."""
    from repro.rdbms import sql
    from repro.rdbms.lru import LruCache

    cache = LruCache(4096)
    monkeypatch.setattr(sql, "_PARSE_CACHE", cache)  # leave the process's own alone
    texts = [f"SELECT * FROM t WHERE id = {number}" for number in range(4097)]
    first = [parse_cached(text) for text in texts[:4096]]
    assert len(cache) == 4096
    newest = parse_cached(texts[4096])  # the 4,097th distinct text ...
    assert parse_cached(texts[4096]) is newest  # ... is cached,
    assert len(cache) == 4096
    assert texts[0] not in cache  # the coldest one made room
    reparsed = parse_cached(texts[0])
    assert reparsed == first[0] and reparsed is not first[0]
    assert parse_cached(texts[4095]) is first[4095]  # a warm one survived


def test_like_matcher_cache_keeps_admitting_past_its_capacity(monkeypatch):
    """Regression: the matcher cache was a dict that stopped admitting at
    1,024 patterns, after which ``Like.evaluate`` recompiled its pattern
    for every row."""
    from repro.rdbms import expressions
    from repro.rdbms.expressions import ColumnRef, Like, like_matcher
    from repro.rdbms.lru import LruCache

    cache = LruCache(1024)
    monkeypatch.setattr(expressions, "_LIKE_CACHE", cache)  # leave the process's own alone
    patterns = [f"item{number}%" for number in range(1025)]
    first = [like_matcher(pattern) for pattern in patterns[:1024]]
    assert len(cache) == 1024
    newest = like_matcher(patterns[1024])  # the 1,025th distinct pattern ...
    assert like_matcher(patterns[1024]) is newest  # ... is cached,
    assert len(cache) == 1024
    assert patterns[0] not in cache  # the coldest one made room
    assert like_matcher(patterns[1023]) is first[1023]  # a warm one survived
    # What a matcher answers does not depend on whether it was cached.
    assert newest("item1024-blue") and not newest("item1023-blue")
    assert like_matcher(patterns[0])("item0-red") and first[0]("item0-red")
    row = {"name": "Item1024-Blue"}
    assert evaluate(Like(ColumnRef("name"), Literal(patterns[1024])), row) is True
    assert evaluate(Like(ColumnRef("name"), Literal(patterns[3])), row) is False


def test_not_equal_variants():
    for operator in ("!=", "<>"):
        with pytest.raises(SqlError, match="unexpected character"):
            parse(f"SELECT * FROM t WHERE a {operator} 1")


def test_float_literals():
    statement = parse("SELECT * FROM t WHERE price BETWEEN 10.5 AND 12")
    assert (statement.where.low, statement.where.high) == (Literal(10.5), Literal(12))
