"""Unit tests for the SQL lexer/parser."""

import pytest

from repro.rdbms.expressions import (
    And,
    ColumnRef,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.rdbms.sql import (
    Aggregate,
    Delete,
    Insert,
    Select,
    SelectItem,
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
    assert statement.is_star
    assert statement.table.name == "items"
    assert statement.where is None


def test_select_columns_with_aliases():
    statement = parse("SELECT id, name AS label FROM items")
    assert statement.items == (
        SelectItem("id", None),
        SelectItem("name", "label"),
    )
    assert statement.items[1].output_name == "label"


def test_select_where_equality_parameter():
    statement = parse("SELECT * FROM items WHERE category_id = ?")
    assert isinstance(statement.where, Comparison)
    assert statement.where.left == ColumnRef("category_id")
    assert statement.where.right == Parameter(0)


def test_select_where_and_or_precedence():
    statement = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
    assert isinstance(statement.where, Or)
    assert isinstance(statement.where.parts[1], And)


def test_select_where_not_and_parentheses():
    statement = parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)")
    assert isinstance(statement.where, Not)
    assert isinstance(statement.where.part, Or)


def test_select_like():
    statement = parse("SELECT * FROM item WHERE name LIKE '%fish%'")
    assert isinstance(statement.where, Like)
    assert statement.where.pattern == Literal("%fish%")


def test_select_in_list():
    statement = parse("SELECT * FROM t WHERE id IN (1, 2, 3)")
    assert isinstance(statement.where, InList)
    assert len(statement.where.options) == 3


def test_select_order_by_and_limit():
    statement = parse("SELECT * FROM t ORDER BY price DESC LIMIT 10")
    assert statement.order_by.column == "price"
    assert statement.order_by.descending
    assert statement.limit == 10


def test_select_order_by_asc_default():
    statement = parse("SELECT * FROM t ORDER BY price")
    assert not statement.order_by.descending


def test_select_aggregates():
    statement = parse("SELECT COUNT(*) AS n, MAX(bid) FROM bids WHERE item_id = ?")
    assert statement.is_aggregate
    count, maximum = statement.items
    assert count == Aggregate("COUNT", None, "n")
    assert maximum == Aggregate("MAX", "bid", None)
    assert maximum.output_name == "max(bid)"


def test_select_join():
    statement = parse(
        "SELECT b.bid, u.nickname FROM bids b JOIN users u ON b.user_id = u.id "
        "WHERE b.item_id = ?"
    )
    assert statement.table.alias == "b"
    assert len(statement.joins) == 1
    join = statement.joins[0]
    assert join.table.binding == "u"
    assert (join.left_column, join.right_column) == ("b.user_id", "u.id")


def test_select_inner_join_keyword():
    statement = parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")
    assert len(statement.joins) == 1


def test_join_non_equality_rejected():
    with pytest.raises(SqlError):
        parse("SELECT * FROM a JOIN b ON a.x < b.y")


def test_string_literal_escaping():
    statement = parse("SELECT * FROM t WHERE name = 'it''s'")
    assert statement.where.right == Literal("it's")


def test_null_true_false_literals():
    statement = parse("SELECT * FROM t WHERE a = NULL OR b = TRUE OR c = FALSE")
    literals = [part.right.value for part in statement.where.parts]
    assert literals == [None, True, False]


def test_parameters_numbered_in_order():
    statement = parse("SELECT * FROM t WHERE a = ? AND b = ?")
    params = [part.right for part in statement.where.parts]
    assert params == [Parameter(0), Parameter(1)]


# ---------------------------------------------------------------------------
# INSERT / UPDATE / DELETE
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
    assert statement.where.right == Parameter(1)


def test_delete():
    statement = parse("DELETE FROM t WHERE id = 5")
    assert isinstance(statement, Delete)
    assert statement.where.right == Literal(5)


def test_delete_without_where():
    statement = parse("DELETE FROM t")
    assert statement.where is None


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
    statement = parse("select * from t where a = 1 order by a desc limit 1")
    assert isinstance(statement, Select)
    assert statement.limit == 1


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


def test_float_literals():
    statement = parse("SELECT * FROM t WHERE price >= 10.5")
    assert statement.where.right == Literal(10.5)
    assert statement.where.operator == ">="


def test_not_equal_variants():
    for operator in ("!=", "<>"):
        statement = parse(f"SELECT * FROM t WHERE a {operator} 1")
        assert statement.where.operator == "!="
