"""The tree-walking reference semantics of the dialect's conditions.

The program compiles every condition to closures
(:mod:`repro.rdbms.compiler`); this walker is the independent reading
they are checked against: SQL three-valued logic collapsed to False,
short-circuit evaluation order, and :class:`EvaluationError` on a
missing or ambiguous column.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

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
    if isinstance(node, Equals):
        value = evaluate(node.column, row)
        other = evaluate(node.value, row)
        return value is not None and other is not None and value == other
    if isinstance(node, Between):
        value = evaluate(node.column, row)
        low = evaluate(node.low, row)
        high = evaluate(node.high, row)
        if value is None or low is None or high is None:
            return False
        return low <= value and value <= high
    if isinstance(node, Like):
        value = evaluate(node.column, row)
        pattern = evaluate(node.pattern, row)
        if value is None or pattern is None:
            return False
        return like_matcher(str(pattern))(str(value).lower())
    if isinstance(node, And):
        return all(evaluate(part, row) for part in node.parts)
    if isinstance(node, Or):
        return any(evaluate(part, row) for part in node.parts)
    raise TypeError(f"no reference semantics for {type(node).__name__}")


def substitute(expression: Optional[Expression], params: Tuple[Any, ...]) -> Optional[Expression]:
    """A copy of ``expression`` with every ``Parameter`` replaced by its value.

    Parameter indexes are statement-global, so ``params`` is the whole
    statement's tuple.
    """
    if expression is None or isinstance(expression, (ColumnRef, Literal)):
        return expression
    if isinstance(expression, Parameter):
        return Literal(params[expression.index])
    if isinstance(expression, Equals):
        return Equals(expression.column, substitute(expression.value, params))
    if isinstance(expression, Between):
        return Between(
            expression.column,
            substitute(expression.low, params),
            substitute(expression.high, params),
        )
    if isinstance(expression, Like):
        return Like(expression.column, substitute(expression.pattern, params))
    parts = tuple(substitute(part, params) for part in expression.parts)
    return And(parts) if isinstance(expression, And) else Or(parts)


def bind_parameters(
    expression: Optional[Expression], params: Tuple[Any, ...]
) -> Optional[Expression]:
    """:func:`substitute` for a condition that takes exactly ``params``."""
    if expression is None:
        if params:
            raise EvaluationError("parameters supplied but statement takes none")
        return None
    expected = expression.parameters()
    if expected != len(params):
        raise EvaluationError(f"statement takes {expected} parameters, got {len(params)}")
    return substitute(expression, params)
