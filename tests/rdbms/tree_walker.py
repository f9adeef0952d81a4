"""The tree-walking reference semantics of SQL expressions.

The program compiles every expression to closures
(:mod:`repro.rdbms.compiler`); this walker is the independent reading
they are checked against: SQL three-valued logic collapsed to False,
short-circuit evaluation order, and :class:`EvaluationError` on a
missing or ambiguous column.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

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
    like_matcher,
)


def evaluate(node: Expression, row: Dict[str, Any]) -> Any:
    """The value of ``node`` on ``row``; parameters must be bound."""
    if isinstance(node, ColumnRef):
        name = node.name
        if name in row:
            return row[name]
        # Unqualified access to a qualified row key and vice versa.
        if "." in name:
            bare = name.split(".", 1)[1]
            if bare in row:
                return row[bare]
        else:
            matches = [key for key in row if key.endswith("." + name)]
            if len(matches) == 1:
                return row[matches[0]]
            if len(matches) > 1:
                raise EvaluationError(f"ambiguous column {name!r}: {matches}")
        raise EvaluationError(f"row has no column {name!r}")
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Parameter):
        raise EvaluationError(f"unbound parameter ?{node.index}")
    if isinstance(node, Comparison):
        left = evaluate(node.left, row)
        right = evaluate(node.right, row)
        if left is None or right is None:
            return False
        return _OPERATORS[node.operator](left, right)
    if isinstance(node, And):
        return all(evaluate(part, row) for part in node.parts)
    if isinstance(node, Or):
        return any(evaluate(part, row) for part in node.parts)
    if isinstance(node, Not):
        return not evaluate(node.part, row)
    if isinstance(node, Like):
        value = evaluate(node.column, row)
        pattern = evaluate(node.pattern, row)
        if value is None or pattern is None:
            return False
        return like_matcher(str(pattern))(str(value).lower())
    if isinstance(node, InList):
        value = evaluate(node.column, row)
        return any(value == evaluate(option, row) for option in node.options)
    raise TypeError(f"no reference semantics for {type(node).__name__}")


def bind_parameters(
    expression: Optional[Expression], params: Tuple[Any, ...]
) -> Optional[Expression]:
    """A copy of ``expression`` with every ``Parameter`` replaced by its value."""
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
