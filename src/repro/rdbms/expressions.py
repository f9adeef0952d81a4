"""Predicate and scalar expression AST used by the SQL layer.

The executor evaluates these against row dicts.  The AST is also built
programmatically by the entity-bean containers (CMP finder methods render
to these expressions rather than to SQL text).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    "bind_parameters",
    "like_matcher",
    "like_prefix",
]


# ---------------------------------------------------------------------------
# LIKE pattern semantics (shared by the tree-walker and the compiler)
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

    def evaluate(self, row: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def columns(self) -> List[str]:
        """All column names referenced (qualified names kept as-is)."""
        return []

    def parameters(self) -> int:
        """Number of ``?`` placeholders in this subtree."""
        return 0


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally table-qualified (``t.col``)."""

    name: str

    def evaluate(self, row: Dict[str, Any]) -> Any:
        if self.name in row:
            return row[self.name]
        # Permit unqualified access to a qualified row key and vice versa.
        if "." in self.name:
            bare = self.name.split(".", 1)[1]
            if bare in row:
                return row[bare]
        else:
            matches = [key for key in row if key.endswith("." + self.name)]
            if len(matches) == 1:
                return row[matches[0]]
            if len(matches) > 1:
                raise EvaluationError(f"ambiguous column {self.name!r}: {matches}")
        raise EvaluationError(f"row has no column {self.name!r}")

    def columns(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def evaluate(self, row: Dict[str, Any]) -> Any:
        return self.value


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder; must be bound before evaluation."""

    index: int

    def evaluate(self, row: Dict[str, Any]) -> Any:
        raise EvaluationError(f"unbound parameter ?{self.index}")

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

    def evaluate(self, row: Dict[str, Any]) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False  # SQL three-valued logic, collapsed to False
        return _OPERATORS[self.operator](left, right)

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

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

    def evaluate(self, row: Dict[str, Any]) -> bool:
        return all(part.evaluate(row) for part in self.parts)

    def columns(self) -> List[str]:
        return [c for part in self.parts for c in part.columns()]

    def parameters(self) -> int:
        return sum(part.parameters() for part in self.parts)


@dataclass(frozen=True)
class Or(Expression):
    parts: Tuple[Expression, ...]

    def evaluate(self, row: Dict[str, Any]) -> bool:
        return any(part.evaluate(row) for part in self.parts)

    def columns(self) -> List[str]:
        return [c for part in self.parts for c in part.columns()]

    def parameters(self) -> int:
        return sum(part.parameters() for part in self.parts)


@dataclass(frozen=True)
class Not(Expression):
    part: Expression

    def evaluate(self, row: Dict[str, Any]) -> bool:
        return not self.part.evaluate(row)

    def columns(self) -> List[str]:
        return self.part.columns()

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

    def evaluate(self, row: Dict[str, Any]) -> bool:
        value = self.column.evaluate(row)
        pattern = self.pattern.evaluate(row)
        if value is None or pattern is None:
            return False
        return like_matcher(str(pattern))(str(value).lower())

    def columns(self) -> List[str]:
        return self.column.columns()

    def parameters(self) -> int:
        return self.pattern.parameters()


@dataclass(frozen=True)
class InList(Expression):
    column: ColumnRef
    options: Tuple[Expression, ...]

    def evaluate(self, row: Dict[str, Any]) -> bool:
        value = self.column.evaluate(row)
        return any(value == option.evaluate(row) for option in self.options)

    def columns(self) -> List[str]:
        return self.column.columns()

    def parameters(self) -> int:
        return sum(option.parameters() for option in self.options)


def bind_parameters(expression: Optional[Expression], params: Tuple[Any, ...]) -> Optional[Expression]:
    """Return a copy of ``expression`` with ``Parameter`` nodes replaced.

    Raises :class:`EvaluationError` when the parameter count mismatches.
    """
    if expression is None:
        if params:
            raise EvaluationError("parameters supplied but statement takes none")
        return None
    expected = expression.parameters()
    if expected != len(params):
        raise EvaluationError(f"statement takes {expected} parameters, got {len(params)}")

    def substitute(node: Expression) -> Expression:
        if isinstance(node, Parameter):
            return Literal(params[node.index])
        if isinstance(node, Comparison):
            return Comparison(substitute(node.left), node.operator, substitute(node.right))
        if isinstance(node, And):
            return And(tuple(substitute(part) for part in node.parts))
        if isinstance(node, Or):
            return Or(tuple(substitute(part) for part in node.parts))
        if isinstance(node, Not):
            return Not(substitute(node.part))
        if isinstance(node, Like):
            return Like(node.column, substitute(node.pattern))
        if isinstance(node, InList):
            return InList(node.column, tuple(substitute(o) for o in node.options))
        return node

    return substitute(expression)
