"""The SQL dialect: lexer, parser, and statement AST.

The dialect is what the two applications, their data generators and the
sharded data tier prepare, and no more (``tests/rdbms/dialect.txt`` pins
those texts)::

    SELECT (* | col[, col]* | COUNT(*) [AS n]) FROM t [alias]
        [JOIN t alias ON col = col] [WHERE cond]
    INSERT INTO t (cols) VALUES (vals)
    UPDATE t SET col = val[, ...] WHERE cond

``cond`` is an OR of ANDs over ``col = val``, ``col LIKE val`` and
``col BETWEEN val AND val``; a ``val`` is ``?`` or a literal (number,
``'string'``, NULL, TRUE, FALSE).  A ``col`` may be qualified by its
table or alias.  Everything else raises :class:`SqlError` here, at
parse: DELETE, GROUP BY, ORDER BY, LIMIT, IN, NOT, parentheses, INNER,
``<``, ``>``, ``!=``/``<>``, a second JOIN, and aggregates other than
``COUNT(*)``.  Statements parse to frozen dataclass ASTs consumed by
:mod:`repro.rdbms.executor`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .expressions import (
    And,
    Between,
    ColumnRef,
    Equals,
    Expression,
    Like,
    Literal,
    Or,
    Parameter,
)
from .lru import LruCache

__all__ = [
    "SqlError",
    "Select",
    "Insert",
    "Update",
    "TableRef",
    "JoinClause",
    "Statement",
    "statement_footprint",
    "parse",
    "parse_cached",
]


class SqlError(Exception):
    """Raised on lexical, syntactic, or out-of-dialect statements."""


# ---------------------------------------------------------------------------
# Statement AST
# ---------------------------------------------------------------------------


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
class Select:
    # The selected columns; empty for ``*`` and for ``COUNT(*)``.
    columns: Tuple[str, ...]
    table: TableRef
    join: Optional[JoinClause] = None
    where: Optional[Expression] = None
    # The output name of ``COUNT(*)``; None when the statement selects rows.
    count: Optional[str] = None

    def tables(self) -> List[str]:
        if self.join is None:
            return [self.table.name]
        return [self.table.name, self.join.table.name]


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]
    values: Tuple[Expression, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Expression


Statement = Union[Select, Insert, Update]


def statement_footprint(statement: Statement) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(tables_read, tables_written)`` of one statement, from the AST.

    SELECT reads its FROM and JOIN tables; INSERT writes its target;
    UPDATE reads (scans) and writes its target.  This is the primitive
    the consistency layer uses to derive method footprints automatically
    — no hand-maintained table lists.
    """
    if isinstance(statement, Select):
        return tuple(sorted(set(statement.tables()))), ()
    if isinstance(statement, Insert):
        return (), (statement.table,)
    return (statement.table,), (statement.table,)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>\?)
  | (?P<op>=)
  | (?P<punct>[(),.*])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

# The dialect's keywords, plus the words of the SQL it leaves out: those
# are reserved too, so ``FROM a INNER JOIN b`` or ``... t ORDER BY x``
# can never parse with the word read as an alias.
_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "JOIN", "ON", "AS", "INSERT",
    "INTO", "VALUES", "UPDATE", "SET", "LIKE", "BETWEEN", "NULL", "TRUE",
    "FALSE",
    "DELETE", "GROUP", "ORDER", "BY", "LIMIT", "IN", "NOT", "INNER",
}

_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


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

    def _expect(self, kind: str, text: str) -> None:
        token = self._peek()
        if token.kind != kind or token.text != text:
            raise self._error(f"expected {text}")
        self.index += 1

    def _match(self, kind: str, text: str) -> bool:
        token = self._peek()
        if token.kind == kind and token.text == text:
            self.index += 1
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            raise self._error("expected identifier")
        self.index += 1
        return token.text

    def _column_name(self) -> str:
        """Possibly-qualified column name: ident ['.' ident]."""
        name = self._expect_ident()
        if self._match("punct", "."):
            name = f"{name}.{self._expect_ident()}"
        return name

    def _list(self, item) -> List:
        """``item (',' item)*``."""
        items = [item()]
        while self._match("punct", ","):
            items.append(item())
        return items

    # -- entry -----------------------------------------------------------------
    def parse(self) -> Statement:
        token = self._peek()
        if token.kind == "keyword" and token.text == "SELECT":
            statement = self._select()
        elif token.kind == "keyword" and token.text == "INSERT":
            statement = self._insert()
        elif token.kind == "keyword" and token.text == "UPDATE":
            statement = self._update()
        else:
            raise self._error("expected SELECT, INSERT or UPDATE")
        if self._peek().kind != "eof":
            raise self._error("trailing tokens")
        return statement

    # -- SELECT ------------------------------------------------------------------
    def _select(self) -> Select:
        self._expect("keyword", "SELECT")
        columns: List[str] = []
        count = None
        token = self._peek()
        if self._match("punct", "*"):
            pass
        elif token.text.upper() == "COUNT" and self.tokens[self.index + 1].text == "(":
            self.index += 2
            self._expect("punct", "*")
            self._expect("punct", ")")
            count = self._expect_ident() if self._match("keyword", "AS") else "count(*)"
        else:
            columns = self._list(self._column_name)
        self._expect("keyword", "FROM")
        table = self._table_ref()
        join = None
        if self._match("keyword", "JOIN"):
            join_table = self._table_ref()
            if join_table.binding == table.binding:
                raise self._error(f"JOIN repeats the binding {table.binding!r}")
            self._expect("keyword", "ON")
            left = self._column_name()
            self._expect("op", "=")
            join = JoinClause(join_table, left, self._column_name())
        where = self._condition() if self._match("keyword", "WHERE") else None
        return Select(tuple(columns), table, join, where, count)

    def _table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = self._advance().text if self._peek().kind == "ident" else None
        return TableRef(name, alias)

    # -- conditions -------------------------------------------------------------
    def _condition(self) -> Expression:
        parts = [self._conjunction()]
        while self._match("keyword", "OR"):
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _conjunction(self) -> Expression:
        parts = [self._predicate()]
        while self._match("keyword", "AND"):
            parts.append(self._predicate())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _predicate(self) -> Expression:
        column = ColumnRef(self._column_name())
        if self._match("op", "="):
            return Equals(column, self._value())
        if self._match("keyword", "LIKE"):
            return Like(column, self._value())
        if self._match("keyword", "BETWEEN"):
            low = self._value()
            self._expect("keyword", "AND")
            return Between(column, low, self._value())
        raise self._error("expected =, LIKE or BETWEEN")

    def _value(self) -> Expression:
        token = self._advance()
        if token.kind == "number":
            return Literal(float(token.text) if "." in token.text else int(token.text))
        if token.kind == "string":
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "param":
            parameter = Parameter(self._parameter_count)
            self._parameter_count += 1
            return parameter
        if token.kind == "keyword" and token.text in _LITERALS:
            return Literal(_LITERALS[token.text])
        self.index -= 1
        raise self._error("expected ? or a literal")

    # -- INSERT / UPDATE ----------------------------------------------------------
    def _insert(self) -> Insert:
        self._expect("keyword", "INSERT")
        self._expect("keyword", "INTO")
        table = self._expect_ident()
        self._expect("punct", "(")
        columns = self._list(self._expect_ident)
        self._expect("punct", ")")
        self._expect("keyword", "VALUES")
        self._expect("punct", "(")
        values = self._list(self._value)
        self._expect("punct", ")")
        if len(columns) != len(values):
            raise SqlError(
                f"INSERT column/value count mismatch ({len(columns)} vs {len(values)})"
            )
        return Insert(table, tuple(columns), tuple(values))

    def _update(self) -> Update:
        self._expect("keyword", "UPDATE")
        table = self._expect_ident()
        self._expect("keyword", "SET")

        def assignment() -> Tuple[str, Expression]:
            column = self._expect_ident()
            self._expect("op", "=")
            return column, self._value()

        assignments = self._list(assignment)
        self._expect("keyword", "WHERE")
        return Update(table, tuple(assignments), self._condition())


def parse(sql: str) -> Statement:
    """Parse one SQL statement; raises :class:`SqlError` on anything off-dialect."""
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
