"""Condition AST of the SQL dialect.

A WHERE is an OR of ANDs over three predicates, each a column against
values: :class:`Equals`, :class:`Like` and :class:`Between`.  A value
is a :class:`Parameter` (``?``) or a :class:`Literal`.
:mod:`repro.rdbms.compiler` lowers these trees to closures the executor
runs against row dicts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from .lru import LruCache

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Parameter",
    "Equals",
    "Like",
    "Between",
    "And",
    "Or",
    "EvaluationError",
    "like_matcher",
]


# ---------------------------------------------------------------------------
# LIKE pattern semantics
# ---------------------------------------------------------------------------

_LIKE_CACHE = LruCache(1024)  # pattern -> matcher


def _compile_like(pattern: str) -> Callable[[str], bool]:
    parts = pattern.lower().split("%")
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


@dataclass(frozen=True)
class Equals(Expression):
    """``column = value``."""

    column: ColumnRef
    value: Expression

    def parameters(self) -> int:
        return self.value.parameters()


@dataclass(frozen=True)
class Like(Expression):
    """``column LIKE pattern``: ``%`` wildcards, matched case-insensitively.

    ``%needle%`` keeps its substring semantics (the Pet Store keyword
    search); any other pattern is an anchored regex.  LIKE is never
    index-accelerated, reproducing "highly customized aggregate queries
    (such as keyword searches) ... end up being executed in the database
    server".
    """

    column: ColumnRef
    pattern: Expression

    def parameters(self) -> int:
        return self.pattern.parameters()


@dataclass(frozen=True)
class Between(Expression):
    """``column BETWEEN low AND high``, both bounds inclusive."""

    column: ColumnRef
    low: Expression
    high: Expression

    def parameters(self) -> int:
        return self.low.parameters() + self.high.parameters()


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
