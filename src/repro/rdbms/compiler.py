"""Condition compilation: AST -> Python closures.

:func:`compile_expression` lowers a WHERE tree once into a nest of
closures ``fn(row, params) -> bool``.  Values are ``?`` or literals, so
each one compiles to a *slot* (:func:`value_slot`): a parameter index
read from the ``params`` tuple at call time, or a constant.

Closures keep SQL's semantics as a tree walk would read them: SQL
three-valued logic collapsed to False (a NULL column or bound makes the
predicate false), short-circuit evaluation order, and
:class:`~repro.rdbms.expressions.EvaluationError` on missing or
ambiguous columns.

Column access comes in two strengths.  Without a resolver a column
compiles to :func:`column_lookup`, which searches the row for the
qualified name, the bare name and a unique ``.name`` suffix, and raises
when none fits.  With ``resolve`` — column name to the row key it is
*proven* to live under, or None — a proven column is one ``row[key]``;
an unproven name keeps the searching lookup, so it raises the same error
at the same point.  :func:`resolves` says whether a whole tree is
proven.  Nothing is memoized here: a prepared statement
(:mod:`repro.rdbms.executor`) compiles its trees once and owns the
closures.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Tuple

from .expressions import (
    And,
    Between,
    Equals,
    EvaluationError,
    Expression,
    Like,
    Or,
    Parameter,
    like_matcher,
)

__all__ = ["compile_expression", "resolves", "column_lookup", "getter", "value_slot"]

Row = Dict[str, Any]
CompiledExpr = Callable[[Row, Tuple[Any, ...]], bool]
Resolver = Callable[[str], Optional[str]]

_MISSING = object()


def value_slot(value: Expression) -> Tuple[Optional[int], Any]:
    """``(index, constant)`` of a ``?`` or literal: the value is
    ``params[index]``, or ``constant`` when ``index`` is None."""
    if type(value) is Parameter:
        return value.index, None
    return None, value.value


def column_lookup(name: str) -> Callable[[Row], Any]:
    """Searching ``row -> value`` for a (possibly qualified) column name."""
    if "." in name:
        bare = name.split(".", 1)[1]

        def lookup(row: Row) -> Any:
            value = row.get(name, _MISSING)
            if value is not _MISSING:
                return value
            # Permit unqualified access to a qualified row key and vice versa.
            value = row.get(bare, _MISSING)
            if value is not _MISSING:
                return value
            raise EvaluationError(f"row has no column {name!r}")

    else:
        suffix = "." + name

        def lookup(row: Row) -> Any:
            value = row.get(name, _MISSING)
            if value is not _MISSING:
                return value
            matches = [key for key in row if key.endswith(suffix)]
            if len(matches) == 1:
                return row[matches[0]]
            if len(matches) > 1:
                raise EvaluationError(f"ambiguous column {name!r}: {matches}")
            raise EvaluationError(f"row has no column {name!r}")

    return lookup


def getter(name: str, resolve: Optional[Resolver]) -> Callable[[Row], Any]:
    """``row -> value`` for a column: one key read when ``resolve`` proves it."""
    key = resolve(name) if resolve is not None else None
    return column_lookup(name) if key is None else itemgetter(key)


def compile_expression(
    expression: Expression, resolve: Optional[Resolver] = None
) -> CompiledExpr:
    """Compile a condition into ``fn(row, params) -> bool``.

    ``resolve`` maps a column name to the row key it is proven to live
    under (None: not proven, keep the searching lookup).
    """
    kind = type(expression)
    if kind is And or kind is Or:
        parts = tuple(compile_expression(part, resolve) for part in expression.parts)
        if kind is And:

            def conjunction(row: Row, params: Tuple[Any, ...]) -> bool:
                for part in parts:
                    if not part(row, params):
                        return False
                return True

            return conjunction

        def disjunction(row: Row, params: Tuple[Any, ...]) -> bool:
            for part in parts:
                if part(row, params):
                    return True
            return False

        return disjunction
    if kind is not Equals and kind is not Between and kind is not Like:
        raise TypeError(f"cannot compile a {kind.__name__} expression")
    get = getter(expression.column.name, resolve)
    if kind is Equals:
        index, constant = value_slot(expression.value)

        def equals(row: Row, params: Tuple[Any, ...]) -> bool:
            value = get(row)
            other = constant if index is None else params[index]
            if value is None or other is None:
                return False
            return value == other

        return equals
    if kind is Between:
        low_index, low_constant = value_slot(expression.low)
        high_index, high_constant = value_slot(expression.high)

        def between(row: Row, params: Tuple[Any, ...]) -> bool:
            value = get(row)
            low = low_constant if low_index is None else params[low_index]
            high = high_constant if high_index is None else params[high_index]
            if value is None or low is None or high is None:
                return False
            return low <= value <= high

        return between
    index, constant = value_slot(expression.pattern)
    # The pattern is constant across a scan (it comes from the params
    # tuple), so memoize the lowered matcher for the last pattern seen
    # instead of re-compiling it for every candidate row.
    last = [_MISSING, None]

    def like(row: Row, params: Tuple[Any, ...]) -> bool:
        value = get(row)
        pattern = constant if index is None else params[index]
        if value is None or pattern is None:
            return False
        if pattern != last[0]:
            last[0] = pattern
            last[1] = like_matcher(str(pattern))
        return last[1](str(value).lower())

    return like


def resolves(expression: Expression, resolve: Resolver) -> bool:
    """True when ``resolve`` proves every column the condition reads.

    Such a tree cannot raise :class:`EvaluationError`, and its closures
    touch the row only through proven keys.  A node kind this module does
    not know reads its row itself, so it is never proven.
    """
    kind = type(expression)
    if kind is And or kind is Or:
        return all(resolves(part, resolve) for part in expression.parts)
    if kind is Equals or kind is Between or kind is Like:
        return resolve(expression.column.name) is not None
    return False
