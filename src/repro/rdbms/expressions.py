"""Predicate and scalar expression AST used by the SQL layer.

:mod:`repro.rdbms.compiler` lowers these trees to closures the executor
runs against row dicts.  The AST is also built programmatically by the
entity-bean containers (CMP finder methods render to these expressions
rather than to SQL text).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .lru import LruCache

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Parameter",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Like",
    "InList",
    "EvaluationError",
    "like_matcher",
    "like_prefix",
]


# ---------------------------------------------------------------------------
# LIKE pattern semantics
# ---------------------------------------------------------------------------

_LIKE_CACHE = LruCache(1024)  # pattern -> matcher


def _compile_like(pattern: str) -> Callable[[str], bool]:
    parts = pattern.lower().split("%")
    if len(parts) == 1:  # no wildcard: exact (case-insensitive) match
        exact = parts[0]
        return lambda value: value == exact
    if len(parts) == 2:
        head, tail = parts
        if not tail:  # 'abc%'
            return lambda value: value.startswith(head)
        if not head:  # '%abc'
            return lambda value: value.endswith(tail)
        floor = len(head) + len(tail)
        return lambda value: (
            len(value) >= floor and value.startswith(head) and value.endswith(tail)
        )
    if len(parts) == 3 and not parts[0] and not parts[2]:  # '%abc%'
        needle = parts[1]
        return lambda value: needle in value
    regex = re.compile(".*".join(re.escape(part) for part in parts), re.DOTALL)
    return lambda value: regex.fullmatch(value) is not None


def like_matcher(pattern: str) -> Callable[[str], bool]:
    """Predicate for a SQL LIKE ``pattern`` (``%`` wildcard, case-insensitive).

    The returned callable expects an already-**lowercased** value; callers
    lower each candidate once instead of per pattern segment.  Matchers
    are memoized in a bounded LRU, so a process that churns through
    patterns neither grows nor stops caching.
    """
    matcher = _LIKE_CACHE.get(pattern)
    if matcher is None:
        matcher = _compile_like(pattern)
        _LIKE_CACHE.put(pattern, matcher)
    return matcher


def like_prefix(pattern: str) -> Optional[str]:
    """The literal prefix when ``pattern`` is prefix-shaped (``abc%``), else None.

    A pattern qualifies for an ordered-index prefix scan only when its
    single ``%`` is the final character and the prefix is non-empty.
    """
    if len(pattern) > 1 and pattern.endswith("%") and "%" not in pattern[:-1]:
        return pattern[:-1]
    return None


class EvaluationError(Exception):
    """Raised when an expression cannot be evaluated against a row."""


class Expression:
    """Base expression node."""

    def parameters(self) -> int:
        """Number of ``?`` placeholders in this subtree."""
        return 0


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally table-qualified (``t.col``)."""

    name: str


@dataclass(frozen=True)
class Literal(Expression):
    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder; must be bound before evaluation."""

    index: int

    def parameters(self) -> int:
        return 1


_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_RANGE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Comparison(Expression):
    left: Expression
    operator: str
    right: Expression

    def __post_init__(self):
        if self.operator not in _OPERATORS:
            raise EvaluationError(f"unknown operator {self.operator!r}")

    def parameters(self) -> int:
        return self.left.parameters() + self.right.parameters()

    def equality_binding(self) -> Optional[Tuple[str, Expression]]:
        """If this is ``column = value-expr``, return that pair (for index use)."""
        if self.operator != "=":
            return None
        if isinstance(self.left, ColumnRef) and not isinstance(self.right, ColumnRef):
            return self.left.name, self.right
        if isinstance(self.right, ColumnRef) and not isinstance(self.left, ColumnRef):
            return self.right.name, self.left
        return None

    def range_binding(self) -> Optional[Tuple[str, str, Expression]]:
        """If this is a range bound on one column, return (column, op, value-expr).

        The operator is normalized to column-on-the-left form, so
        ``5 < price`` reports ``("price", ">", 5)``.  Used by the planner
        to consider ordered-index range scans.
        """
        flipped = _RANGE_FLIP.get(self.operator)
        if flipped is None:
            return None
        if isinstance(self.left, ColumnRef) and not isinstance(self.right, ColumnRef):
            return self.left.name, self.operator, self.right
        if isinstance(self.right, ColumnRef) and not isinstance(self.left, ColumnRef):
            return self.right.name, flipped, self.left
        return None


@dataclass(frozen=True)
class And(Expression):
    parts: Tuple[Expression, ...]

    def parameters(self) -> int:
        return sum(part.parameters() for part in self.parts)


@dataclass(frozen=True)
class Or(Expression):
    parts: Tuple[Expression, ...]

    def parameters(self) -> int:
        return sum(part.parameters() for part in self.parts)


@dataclass(frozen=True)
class Not(Expression):
    part: Expression

    def parameters(self) -> int:
        return self.part.parameters()


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` wildcards, matched case-insensitively.

    ``%needle%`` keeps its substring semantics (the Pet Store keyword
    search), ``abc%`` anchors a prefix — which the planner can serve from
    an ordered index — and general multi-``%`` patterns fall back to an
    anchored regex.  Interior-wildcard patterns are never
    index-accelerated, reproducing "highly customized aggregate queries
    (such as keyword searches) ... end up being executed in the database
    server".
    """

    column: ColumnRef
    pattern: Expression

    def parameters(self) -> int:
        return self.pattern.parameters()


@dataclass(frozen=True)
class InList(Expression):
    column: ColumnRef
    options: Tuple[Expression, ...]

    def parameters(self) -> int:
        return sum(option.parameters() for option in self.options)
