"""Expression compilation: AST -> Python closures.

:func:`compile_expression` lowers a WHERE/ON/value tree once into a nest
of closures ``fn(row, params) -> value``.  Parameters are read from the
``params`` tuple at call time (an environment, not a tree rewrite) and
constants are folded at compile time (LIKE needles are lowered once,
literal IN lists become tuple-membership tests).

Closures keep SQL's semantics as a tree walk would read them: SQL
three-valued logic collapsed to False, short-circuit evaluation order,
and :class:`~repro.rdbms.expressions.EvaluationError` on missing or
ambiguous columns (a join's first pass relies on those errors to defer
conjuncts until the joined columns are visible).

Column access comes in two strengths.  Without a resolver a column
compiles to :func:`column_lookup`, which searches the row for the
qualified name, the bare name and a unique ``.name`` suffix, and raises
when none fits.  With ``resolve`` — column name to the row key it is
*proven* to live under, or None — a proven column is one ``row[key]``
and ``column <op> ?|literal`` over it is one closure; an unproven name
keeps the searching lookup, so it raises the same error at the same
point.  :func:`resolves` says whether a whole tree is proven.  Nothing
is memoized here: a prepared statement (:mod:`repro.rdbms.executor`)
compiles its trees once and owns the closures.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .expressions import (
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
__all__ = ["compile_expression", "resolves", "column_lookup", "EMPTY_ROW"]

CompiledExpr = Callable[[Dict[str, Any], Tuple[Any, ...]], Any]
Resolver = Callable[[str], Optional[str]]

EMPTY_ROW: Dict[str, Any] = {}

_MISSING = object()


def column_lookup(name: str) -> CompiledExpr:
    """Searching row-lookup closure for a (possibly qualified) column name."""
    if "." in name:
        bare = name.split(".", 1)[1]

        def lookup(row: Dict[str, Any], params: Tuple[Any, ...]) -> Any:
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

        def lookup(row: Dict[str, Any], params: Tuple[Any, ...]) -> Any:
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


def compile_expression(
    expression: Expression, resolve: Optional[Resolver] = None
) -> CompiledExpr:
    """Compile ``expression`` into ``fn(row, params) -> value``.

    ``resolve`` maps a column name to the row key it is proven to live
    under (None: not proven, keep the searching lookup).
    """
    kind = type(expression)
    if kind is Literal:
        value = expression.value
        return lambda row, params: value
    if kind is Parameter:
        index = expression.index
        return lambda row, params: params[index]
    if kind is ColumnRef:
        key = resolve(expression.name) if resolve is not None else None
        if key is None:
            return column_lookup(expression.name)
        return lambda row, params: row[key]
    if kind is Comparison:
        operator = _OPERATORS[expression.operator]
        right_kind = type(expression.right)
        if (
            resolve is not None
            and type(expression.left) is ColumnRef
            and (right_kind is Parameter or right_kind is Literal)
        ):
            key = resolve(expression.left.name)
            if key is not None:
                # ``column <op> ?|literal`` over a proven column: neither
                # side can raise, so one closure does the whole test.
                index = expression.right.index if right_kind is Parameter else None
                constant = None if right_kind is Parameter else expression.right.value

                def compare_column(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
                    value = row[key]
                    bound = constant if index is None else params[index]
                    if value is None or bound is None:
                        return False
                    return operator(value, bound)

                return compare_column
        left = compile_expression(expression.left, resolve)
        right = compile_expression(expression.right, resolve)

        def compare(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
            # Both sides evaluate before the NULL check, exactly like the
            # tree-walker: a missing column on either side must raise.
            left_value = left(row, params)
            right_value = right(row, params)
            if left_value is None or right_value is None:
                return False  # SQL three-valued logic, collapsed to False
            return operator(left_value, right_value)

        return compare
    if kind is And:
        parts = tuple(compile_expression(part, resolve) for part in expression.parts)

        def conjunction(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
            for part in parts:
                if not part(row, params):
                    return False
            return True

        return conjunction
    if kind is Or:
        parts = tuple(compile_expression(part, resolve) for part in expression.parts)

        def disjunction(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
            for part in parts:
                if part(row, params):
                    return True
            return False

        return disjunction
    if kind is Not:
        part = compile_expression(expression.part, resolve)
        return lambda row, params: not part(row, params)
    if kind is Like:
        column = compile_expression(expression.column, resolve)
        if type(expression.pattern) is Literal and expression.pattern.value is not None:
            match = like_matcher(str(expression.pattern.value))

            def like_constant(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
                value = column(row, params)
                if value is None:
                    return False
                return match(str(value).lower())

            return like_constant
        pattern = compile_expression(expression.pattern, resolve)
        # The pattern is constant across a scan (it comes from the params
        # tuple), so memoize the lowered matcher for the last pattern seen
        # instead of re-compiling it for every candidate row.
        last = [_MISSING, None]

        def like(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
            value = column(row, params)
            pattern_value = pattern(row, params)
            if value is None or pattern_value is None:
                return False
            if pattern_value != last[0]:
                last[0] = pattern_value
                last[1] = like_matcher(str(pattern_value))
            return last[1](str(value).lower())

        return like
    if kind is InList:
        column = compile_expression(expression.column, resolve)
        if all(type(option) is Literal for option in expression.options):
            values = tuple(option.value for option in expression.options)
            # Tuple membership uses ==, matching the tree-walker's
            # pairwise comparisons (including NULL == NULL -> True).
            return lambda row, params: column(row, params) in values
        options = tuple(
            compile_expression(option, resolve) for option in expression.options
        )

        def in_list(row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
            value = column(row, params)
            for option in options:
                if value == option(row, params):
                    return True
            return False

        return in_list
    raise TypeError(f"cannot compile a {kind.__name__} expression")


def resolves(expression: Expression, resolve: Resolver) -> bool:
    """True when ``resolve`` proves every column ``expression`` reads.

    Such a tree cannot raise :class:`EvaluationError`, and its closures
    touch the row only through proven keys.  A node kind this module
    does not know reads its row itself, so it is never proven.
    """
    kind = type(expression)
    if kind is ColumnRef:
        return resolve(expression.name) is not None
    if kind is Literal or kind is Parameter:
        return True
    if kind is Comparison:
        return resolves(expression.left, resolve) and resolves(expression.right, resolve)
    if kind is And or kind is Or:
        return all(resolves(part, resolve) for part in expression.parts)
    if kind is Not:
        return resolves(expression.part, resolve)
    if kind is Like:
        return resolves(expression.column, resolve) and resolves(expression.pattern, resolve)
    if kind is InList:
        return resolves(expression.column, resolve) and all(
            resolves(option, resolve) for option in expression.options
        )
    return False
