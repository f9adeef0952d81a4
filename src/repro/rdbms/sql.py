"""A SQL subset: lexer, parser, and statement AST.

Supports exactly what the two applications and the query-caching layer
need — single-table and equi-join SELECTs with aggregates, ORDER BY and
LIMIT, plus INSERT / UPDATE / DELETE — while rejecting anything else
loudly.  Statements parse to dataclass ASTs consumed by
:mod:`repro.rdbms.executor`.

Grammar (informal)::

    select   := SELECT select_list FROM table_ref (JOIN table_ref ON eq)*
                [WHERE expr] [GROUP BY column] [ORDER BY column [ASC|DESC]]
                [LIMIT int]
    expr     := comparisons, LIKE, IN, BETWEEN, AND/OR/NOT, parentheses
    insert   := INSERT INTO name '(' columns ')' VALUES '(' values ')'
    update   := UPDATE name SET assignments [WHERE expr]
    delete   := DELETE FROM name [WHERE expr]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from .lru import LruCache

__all__ = [
    "SqlError",
    "Select",
    "Insert",
    "Update",
    "Delete",
    "Aggregate",
    "SelectItem",
    "TableRef",
    "JoinClause",
    "OrderBy",
    "Statement",
    "statement_footprint",
    "parse",
    "parse_cached",
]


class SqlError(Exception):
    """Raised on lexical, syntactic, or unsupported-feature errors."""


# ---------------------------------------------------------------------------
# Statement AST
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = ("COUNT", "MAX", "MIN", "SUM", "AVG")


@dataclass(frozen=True)
class Aggregate:
    """``COUNT(*)`` / ``MAX(col)`` etc. in a select list."""

    function: str
    column: Optional[str]  # None means '*' (COUNT(*) only)
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        target = self.column if self.column is not None else "*"
        return f"{self.function.lower()}({target})"


@dataclass(frozen=True)
class SelectItem:
    """A plain column in a select list, optionally aliased."""

    column: str
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        return self.alias or self.column


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    left_column: str
    right_column: str


@dataclass(frozen=True)
class OrderBy:
    column: str
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: Tuple[Union[SelectItem, Aggregate], ...]  # empty tuple means '*'
    table: TableRef
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expression] = None
    group_by: Optional[str] = None
    order_by: Optional[OrderBy] = None
    limit: Optional[int] = None

    @property
    def is_aggregate(self) -> bool:
        return any(isinstance(item, Aggregate) for item in self.items)

    @property
    def is_star(self) -> bool:
        return not self.items

    def tables(self) -> List[str]:
        return [self.table.name] + [join.table.name for join in self.joins]


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]
    values: Tuple[Expression, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None


Statement = Union[Select, Insert, Update, Delete]


def statement_footprint(statement: Statement) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(tables_read, tables_written)`` of one statement, from the AST.

    SELECT reads its FROM table plus every JOIN table; INSERT writes its
    target; UPDATE and DELETE both read (scan) and write their target.
    This is the primitive the consistency layer uses to derive method
    footprints automatically — no hand-maintained table lists.
    """
    if isinstance(statement, Select):
        return tuple(sorted(set(statement.tables()))), ()
    if isinstance(statement, Insert):
        return (), (statement.table,)
    if isinstance(statement, (Update, Delete)):
        return (statement.table,), (statement.table,)
    raise SqlError(f"no footprint for statement type {type(statement).__name__}")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>\?)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),.*])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "JOIN", "ON", "AS",
    "GROUP", "ORDER", "BY", "ASC", "DESC", "LIMIT", "INSERT", "INTO",
    "VALUES", "UPDATE", "SET", "DELETE", "LIKE", "IN", "NULL", "TRUE",
    "FALSE", "INNER", "BETWEEN",
}


@dataclass
class _Token:
    kind: str  # 'number' | 'string' | 'param' | 'op' | 'punct' | 'ident' | 'keyword' | 'eof'
    text: str
    position: int


def _lex(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlError(f"unexpected character {sql[position]!r} at {position} in {sql!r}")
        kind = match.lastgroup
        text = match.group()
        position = match.end()
        if kind == "ws":
            continue
        if kind == "ident" and text.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", text.upper(), match.start()))
        else:
            tokens.append(_Token(kind, text, match.start()))
    tokens.append(_Token("eof", "", len(sql)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = _lex(sql)
        self.index = 0
        self._parameter_count = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _error(self, message: str) -> SqlError:
        token = self._peek()
        return SqlError(f"{message} at {token.position} (near {token.text!r}) in {self.sql!r}")

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if token.kind != "keyword" or token.text != keyword:
            self.index -= 1
            raise self._error(f"expected {keyword}")

    def _match_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.text == keyword:
            self.index += 1
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        token = self._advance()
        if token.kind != "punct" or token.text != punct:
            self.index -= 1
            raise self._error(f"expected {punct!r}")

    def _match_punct(self, punct: str) -> bool:
        token = self._peek()
        if token.kind == "punct" and token.text == punct:
            self.index += 1
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind != "ident":
            self.index -= 1
            raise self._error("expected identifier")
        return token.text

    def _column_name(self) -> str:
        """Possibly-qualified column name: ident ['.' ident]."""
        name = self._expect_ident()
        if self._match_punct("."):
            name = f"{name}.{self._expect_ident()}"
        return name

    # -- entry -----------------------------------------------------------------
    def parse(self) -> Statement:
        token = self._peek()
        if token.kind != "keyword":
            raise self._error("expected a statement keyword")
        if token.text == "SELECT":
            statement = self._select()
        elif token.text == "INSERT":
            statement = self._insert()
        elif token.text == "UPDATE":
            statement = self._update()
        elif token.text == "DELETE":
            statement = self._delete()
        else:
            raise self._error(f"unsupported statement {token.text}")
        if self._peek().kind != "eof":
            raise self._error("trailing tokens")
        return statement

    # -- SELECT ------------------------------------------------------------------
    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        items = self._select_list()
        self._expect_keyword("FROM")
        table = self._table_ref()
        joins: List[JoinClause] = []
        while True:
            if self._match_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif not self._match_keyword("JOIN"):
                break
            join_table = self._table_ref()
            self._expect_keyword("ON")
            left = self._column_name()
            token = self._advance()
            if token.kind != "op" or token.text != "=":
                self.index -= 1
                raise self._error("JOIN supports only equality conditions")
            right = self._column_name()
            joins.append(JoinClause(join_table, left, right))
        where = self._where_clause()
        group_by = None
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._column_name()
        order_by = None
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            column = self._column_name()
            descending = False
            if self._match_keyword("DESC"):
                descending = True
            else:
                self._match_keyword("ASC")
            order_by = OrderBy(column, descending)
        limit = None
        if self._match_keyword("LIMIT"):
            token = self._advance()
            if token.kind != "number" or "." in token.text:
                self.index -= 1
                raise self._error("LIMIT expects an integer")
            limit = int(token.text)
        return Select(tuple(items), table, tuple(joins), where, group_by, order_by, limit)

    def _select_list(self) -> List[Union[SelectItem, Aggregate]]:
        if self._match_punct("*"):
            return []
        items: List[Union[SelectItem, Aggregate]] = []
        while True:
            items.append(self._select_item())
            if not self._match_punct(","):
                break
        return items

    def _select_item(self) -> Union[SelectItem, Aggregate]:
        token = self._peek()
        if token.kind == "ident" and token.text.upper() in AGGREGATE_FUNCTIONS:
            lookahead = self.tokens[self.index + 1]
            if lookahead.kind == "punct" and lookahead.text == "(":
                function = self._advance().text.upper()
                self._expect_punct("(")
                if self._match_punct("*"):
                    if function != "COUNT":
                        raise self._error(f"{function}(*) is not supported")
                    column = None
                else:
                    column = self._column_name()
                self._expect_punct(")")
                alias = self._alias()
                return Aggregate(function, column, alias)
        column = self._column_name()
        return SelectItem(column, self._alias())

    def _alias(self) -> Optional[str]:
        if self._match_keyword("AS"):
            return self._expect_ident()
        if self._peek().kind == "ident":
            return self._advance().text
        return None

    def _table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._advance().text
        return TableRef(name, alias)

    def _where_clause(self) -> Optional[Expression]:
        if self._match_keyword("WHERE"):
            return self._expression()
        return None

    # -- expressions ----------------------------------------------------------
    def _expression(self) -> Expression:
        return self._or_expression()

    def _or_expression(self) -> Expression:
        parts = [self._and_expression()]
        while self._match_keyword("OR"):
            parts.append(self._and_expression())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _and_expression(self) -> Expression:
        parts = [self._not_expression()]
        while self._match_keyword("AND"):
            parts.append(self._not_expression())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _not_expression(self) -> Expression:
        if self._match_keyword("NOT"):
            return Not(self._not_expression())
        return self._primary()

    def _primary(self) -> Expression:
        if self._match_punct("("):
            inner = self._expression()
            self._expect_punct(")")
            return inner
        left = self._value()
        token = self._peek()
        if token.kind == "keyword" and token.text == "LIKE":
            if not isinstance(left, ColumnRef):
                raise self._error("LIKE requires a column on the left")
            self._advance()
            return Like(left, self._value())
        if token.kind == "keyword" and token.text == "BETWEEN":
            # Desugar to a pair of inclusive range comparisons; the
            # planner recombines them into one ordered-index range scan.
            self._advance()
            low = self._value()
            self._expect_keyword("AND")
            high = self._value()
            return And(
                (Comparison(left, ">=", low), Comparison(left, "<=", high))
            )
        if token.kind == "keyword" and token.text == "IN":
            if not isinstance(left, ColumnRef):
                raise self._error("IN requires a column on the left")
            self._advance()
            self._expect_punct("(")
            options = [self._value()]
            while self._match_punct(","):
                options.append(self._value())
            self._expect_punct(")")
            return InList(left, tuple(options))
        if token.kind == "op":
            operator = self._advance().text
            if operator == "<>":
                operator = "!="
            right = self._value()
            return Comparison(left, operator, right)
        raise self._error("expected a comparison operator")

    def _value(self) -> Expression:
        token = self._advance()
        if token.kind == "number":
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "string":
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "param":
            parameter = Parameter(self._parameter_count)
            self._parameter_count += 1
            return parameter
        if token.kind == "keyword" and token.text in ("NULL", "TRUE", "FALSE"):
            return Literal({"NULL": None, "TRUE": True, "FALSE": False}[token.text])
        if token.kind == "ident":
            self.index -= 1
            return ColumnRef(self._column_name())
        self.index -= 1
        raise self._error("expected a value")

    # -- INSERT / UPDATE / DELETE -----------------------------------------------
    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        self._expect_punct("(")
        columns = [self._expect_ident()]
        while self._match_punct(","):
            columns.append(self._expect_ident())
        self._expect_punct(")")
        self._expect_keyword("VALUES")
        self._expect_punct("(")
        values = [self._value()]
        while self._match_punct(","):
            values.append(self._value())
        self._expect_punct(")")
        if len(columns) != len(values):
            raise SqlError(
                f"INSERT column/value count mismatch ({len(columns)} vs {len(values)})"
            )
        return Insert(table, tuple(columns), tuple(values))

    def _update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self._expect_ident()
            token = self._advance()
            if token.kind != "op" or token.text != "=":
                self.index -= 1
                raise self._error("expected = in SET")
            assignments.append((column, self._value()))
            if not self._match_punct(","):
                break
        return Update(table, tuple(assignments), self._where_clause())

    def _delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        return Delete(table, self._where_clause())


def parse(sql: str) -> Statement:
    """Parse one SQL statement; raises :class:`SqlError` on anything off-grammar."""
    return _Parser(sql).parse()


_PARSE_CACHE = LruCache(4096)


def parse_cached(sql: str) -> Statement:
    """Like :func:`parse` but memoized by statement text (ASTs are frozen).

    A bounded LRU: past 4,096 texts the coldest is evicted, so a process
    that churns through statements neither grows nor stops caching.
    """
    statement = _PARSE_CACHE.get(sql)
    if statement is None:
        statement = parse(sql)
        _PARSE_CACHE.put(sql, statement)
    return statement
