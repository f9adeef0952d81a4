"""Prepared statements: analyse, plan and compile once; execute is bind + run.

A :class:`PreparedStatement` holds everything about one statement that is
a function of its AST and the schemas of the tables it names, decided
once, when :class:`~repro.rdbms.engine.Database` first sees the text:

* parameter count, kind, table footprint and the bound tables;
* per scanned table a :class:`_Scan`: which conjuncts admit which access
  paths (hash-index equality probe, ordered-index prefix scan for
  ``LIKE 'abc%'``, ordered-index range scan, full scan) and the compiled
  predicate.  Column names are proven against the schema, so predicate,
  projection, ORDER BY and aggregate inputs read ``row[key]`` from the
  live storage rows; a name that cannot be proven keeps the searching
  lookup and raises exactly where it used to;
* for joins, the decoded steps, the qualified key pairs and the split of
  WHERE into the *leading run* of conjuncts proven on the base table
  (filtered on the storage row), the run of inner-only conjuncts after it
  (tested on the probed row, before the combined dict is built) and the
  residual.  Only a leading run may filter early: ``And`` short-circuits
  left to right and the first conjunct naming a not-yet-visible column
  *keeps* the row, which then probes the inner index and counts into
  ``rows_scanned``.

Per call stays what depends on the bound values or the live table: the
probe values and — only when an ordered-index prefix or range candidate
competes — the SimpleDB-style costing of every candidate in
``blocks_accessed`` / ``records_output`` against live
:class:`~repro.rdbms.stats.TableStats` (ties break by a fixed path
rank).  A lone equality candidate needs no costing: it estimates
``ceil(n/d) <= n`` records against the full scan's ``n`` and wins ties
by rank; with no candidate the full scan is the only path.  A multi-join
order is greedy in live probe costs, so it stays per call too.

The plan is reported on :class:`ResultSet` lazily: execution captures the
integers the estimates are made of (row and distinct counts; the costed
candidates when costing ran) and ``result.plan`` builds the same
:class:`~repro.rdbms.plan.QueryPlan` from them on first read — the
statistics of the moment of execution, whenever it is read.
``rows_scanned`` and ``used_index``, which the database server charges
time from, and the executor's scan counters are kept eagerly.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .compiler import EMPTY_ROW, column_lookup, compile_expression, resolves
from .expressions import (
    And,
    ColumnRef,
    Comparison,
    EvaluationError,
    Expression,
    InList,
    Like,
    Literal,
    Parameter,
    like_prefix,
)
from .plan import AccessChoice, PlanNode, QueryPlan, choose_path, scan_node
from .sql import (
    Aggregate,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
    statement_footprint,
)
from .stats import TableStats, blocks_for, equality_records
from .storage import Table

__all__ = ["ResultSet", "ExecutionError", "Executor", "PreparedStatement"]

_KINDS = {Select: "select", Insert: "insert", Update: "update", Delete: "delete"}
_FULL = ("full",)


class ExecutionError(Exception):
    """Raised when a statement cannot be executed."""


class ResultSet:
    """Rows produced by a statement plus execution cost evidence."""

    __slots__ = ("columns", "rows", "rows_scanned", "used_index", "affected", "_plan")

    def __init__(
        self,
        columns: List[str],
        rows: List[Dict[str, Any]],
        rows_scanned: int = 0,
        used_index: Optional[str] = None,
        affected: int = 0,  # for INSERT/UPDATE/DELETE
        plan: Optional[QueryPlan] = None,
    ):
        self.columns = columns
        self.rows = rows
        self.rows_scanned = rows_scanned
        self.used_index = used_index
        self.affected = affected
        # A QueryPlan, None, or — until first read — the tuple
        # ``(prepared, scan_snapshot, join_snapshots)`` it is built from.
        self._plan = plan

    @property
    def plan(self) -> Optional[QueryPlan]:
        """Chosen access paths, EXPLAIN-renderable, as of execution time."""
        plan = self._plan
        if type(plan) is tuple:
            plan = self._plan = plan[0].plan_from(plan[1], plan[2])
        return plan

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def first(self) -> Optional[Dict[str, Any]]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() on a {len(self.rows)}x{len(self.columns)} result"
            )
        return self.rows[0][self.columns[0]]

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def explain(self) -> str:
        """EXPLAIN text for the plan that produced this result."""
        plan = self.plan
        if plan is None:
            return "QUERY PLAN (none recorded)"
        return plan.render()


def _conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into a conjunct list (BETWEEN desugars to a
    nested And, so flattening must recurse)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        flat: List[Expression] = []
        for part in expression.parts:
            flat.extend(_conjuncts(part))
        return flat
    return [expression]


def _conjunction(conjuncts: List[Expression], resolve) -> Optional[Callable]:
    """One compiled predicate for ``conjuncts`` in order; None when empty."""
    if not conjuncts:
        return None
    tree = conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))
    return compile_expression(tree, resolve)


def _raises_unresolved(conjunct: Expression, resolve) -> bool:
    """True when ``conjunct`` raises EvaluationError on *every* row whose
    only visible columns are those ``resolve`` proves: the shapes that
    read an unproven column before anything can short-circuit."""
    if isinstance(conjunct, Comparison):
        sides = (conjunct.left, conjunct.right)  # both evaluate before the test
    elif isinstance(conjunct, Like):
        sides = (conjunct.column, conjunct.pattern)  # likewise
    elif isinstance(conjunct, InList):
        sides = (conjunct.column,)  # options evaluate lazily
    else:
        return False
    for side in sides:  # in evaluation order
        if isinstance(side, ColumnRef):
            if resolve(side.name) is None:
                return True
        elif not isinstance(side, (Literal, Parameter)):
            return False
    return False


def _getter(name: str, resolve) -> Callable[[Dict[str, Any]], Any]:
    """``row -> value`` for a column: one key read when ``resolve`` proves it."""
    key = resolve(name) if resolve is not None else None
    if key is not None:
        return itemgetter(key)
    lookup = column_lookup(name)
    return lambda row: lookup(row, ())


class _Scan:
    """One table's access paths and predicate for one WHERE, bound once.

    ``binding`` is None for a single-table statement (``predicate`` is
    the whole WHERE) and the base binding of a join, where ``predicate``
    is only the leading run of ``lead`` conjuncts proven on this table;
    ``deferred`` holds the rest when it could still reject a row before
    the join (see :meth:`_survives`).

    ``eq`` is the *leftmost* equality-indexed conjunct — preserving the
    legacy planner's choice when several are indexed.  ``ranges`` maps
    ordered-indexed non-TEXT columns to their bound closures;
    ``prefixes`` lists LIKE conjuncts over ordered-indexed TEXT columns
    whose pattern may turn out prefix-shaped at execution time.
    """

    def __init__(
        self,
        executor: "Executor",
        table: Table,
        where: Optional[Expression],
        binding: Optional[str] = None,
    ):
        self.executor = executor
        self.table = table
        self.name = table.name
        self.rows = table.scan(copy=False)  # live, sized view of the heap
        self.row_size = max(1, table.schema.estimated_row_size())
        columns = table.schema.column_map

        def resolve(name: str) -> Optional[str]:
            """The storage key of ``name`` if it is a column of this table."""
            owner, dot, bare = name.partition(".")
            if not dot:
                bare = name
            elif binding is not None and owner != binding:
                return None
            return bare if bare in columns else None

        self.resolve = resolve
        conjuncts = _conjuncts(where)
        self._find_candidates(conjuncts)
        self.deferred = None
        if binding is None:
            self.predicate = None if where is None else compile_expression(where, resolve)
            return
        lead = 0
        while lead < len(conjuncts) and resolves(conjuncts[lead], resolve):
            lead += 1
        self.lead = lead
        self.predicate = _conjunction(conjuncts[:lead], resolve)
        self.pairs = tuple((c, f"{binding}.{c}") for c in table.schema.column_names())
        rest = conjuncts[lead:]
        if rest and not _raises_unresolved(rest[0], resolve):
            self.deferred = _conjunction(rest, None)

    def _find_candidates(self, conjuncts: List[Expression]) -> None:
        table, resolve = self.table, self.resolve
        eq = None
        ranges: Dict[str, List[Tuple[str, Any]]] = {}
        prefixes: List[Tuple[str, Any]] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, Like):
                bare = resolve(conjunct.column.name)
                if (
                    bare is not None
                    and table.has_ordered_index(bare)
                    and table.ordered_index_is_casefolded(bare)
                ):
                    prefixes.append((bare, compile_expression(conjunct.pattern)))
                continue
            if not isinstance(conjunct, Comparison):
                continue
            binding = conjunct.equality_binding()
            if binding is not None:
                bare = resolve(binding[0])
                if bare is not None and eq is None and table.has_index(bare):
                    eq = (bare, compile_expression(binding[1]))
                continue
            range_bind = conjunct.range_binding()
            if range_bind is not None:
                column, operator, value_expr = range_bind
                bare = resolve(column)
                # TEXT ordered indexes hold casefolded keys, which only
                # preserve *prefix* order — range probes would be wrong
                # (e.g. 'a' > 'B' flips under casefolding), so ranges are
                # limited to non-TEXT ordered indexes.
                if (
                    bare is not None
                    and table.has_ordered_index(bare)
                    and not table.ordered_index_is_casefolded(bare)
                ):
                    ranges.setdefault(bare, []).append(
                        (operator, compile_expression(value_expr))
                    )
        self.eq = eq
        self.ranges = tuple((column, tuple(bounds)) for column, bounds in ranges.items())
        self.prefixes = tuple(prefixes)
        self.competing = bool(ranges or prefixes)

    # -- choosing a path ------------------------------------------------------
    def choose(self, params: Tuple[Any, ...]) -> Tuple[tuple, tuple]:
        """The access path for ``params``, fetching nothing.

        Returns ``(spec, snapshot)``.  ``spec`` carries the probe values:
        ``("eq", column, value)``, ``("prefix", column, prefix)``,
        ``("range", column, lo, hi)`` (bounds are ``(value, inclusive)``
        or None) or ``("full",)``.  ``snapshot`` is what :meth:`plan_node`
        needs of this moment: ``(row_count, distinct, costed)`` —
        ``distinct`` of the equality column when that probe was taken
        uncosted, ``costed`` the ``(chosen, candidates)`` of a costing.
        """
        if self.executor.force_full_scans or (self.eq is None and not self.competing):
            return _FULL, (len(self.rows), None, None)
        if self.competing:
            return self._cost(params)
        column, value_fn = self.eq
        return (
            ("eq", column, value_fn(EMPTY_ROW, params)),
            (len(self.rows), self.table.distinct_count(column), None),
        )

    def _full_choice(self, row_count: int) -> AccessChoice:
        return AccessChoice(
            "full-scan", self.name, None, "all rows",
            blocks_for(row_count, self.row_size), row_count,
        )

    def _eq_choice(self, row_count: int, distinct: int) -> AccessChoice:
        column = self.eq[0]
        records = equality_records(row_count, distinct)
        return AccessChoice(
            "index-eq", self.name, column, f"{column} = <probe>",
            blocks_for(records, self.row_size), records,
        )

    def _cost(self, params: Tuple[Any, ...]) -> Tuple[tuple, tuple]:
        """Cost every candidate access path against live statistics."""
        stats = TableStats(self.table)
        candidates: List[AccessChoice] = []
        specs: List[tuple] = []
        if self.eq is not None:
            column, value_fn = self.eq
            candidates.append(
                self._eq_choice(stats.row_count, stats.distinct_values(column))
            )
            specs.append(("eq", column, value_fn(EMPTY_ROW, params)))
        for column, pattern_fn in self.prefixes:
            pattern = pattern_fn(EMPTY_ROW, params)
            prefix = like_prefix(str(pattern)) if pattern is not None else None
            if prefix is None:
                continue
            records = stats.prefix_records(column)
            candidates.append(
                AccessChoice(
                    "index-prefix", self.name, column,
                    f"{column} LIKE '{prefix}%'",
                    stats.blocks_for(records), records,
                )
            )
            specs.append(("prefix", column, prefix))
        for column, bounds in self.ranges:
            lo = hi = None
            for operator, value_fn in bounds:
                value = value_fn(EMPTY_ROW, params)
                if value is None:
                    continue  # NULL bound: predicate filters everything anyway
                inclusive = operator in (">=", "<=")
                try:
                    if operator in (">", ">="):
                        if lo is None or value > lo[0] or (
                            value == lo[0] and not inclusive
                        ):
                            lo = (value, inclusive)
                    else:
                        if hi is None or value < hi[0] or (
                            value == hi[0] and not inclusive
                        ):
                            hi = (value, inclusive)
                except TypeError:
                    continue  # incomparable bound values: keep the first
            if lo is None and hi is None:
                continue
            records = stats.range_records(
                column, lo[0] if lo else None, hi[0] if hi else None
            )
            candidates.append(
                AccessChoice(
                    "index-range", self.name, column,
                    _describe_range(column, lo, hi),
                    stats.blocks_for(records), records,
                )
            )
            specs.append(("range", column, lo, hi))
        candidates.append(self._full_choice(stats.row_count))
        specs.append(_FULL)
        chosen = choose_path(candidates)
        return (
            specs[candidates.index(chosen)],
            (stats.row_count, None, (chosen, candidates)),
        )

    def plan_node(
        self, row_count: int, distinct: Optional[int], costed: Optional[tuple]
    ) -> PlanNode:
        """The EXPLAIN leaf for a :meth:`choose` snapshot."""
        if costed is not None:
            return scan_node(*costed)
        full = self._full_choice(row_count)
        if distinct is None:
            return scan_node(full, [full])
        eq = self._eq_choice(row_count, distinct)
        return scan_node(eq, [eq, full])

    # -- fetching -------------------------------------------------------------
    def matches(
        self, params: Tuple[Any, ...]
    ) -> Tuple[List[Dict[str, Any]], int, Optional[str], tuple]:
        """Live storage rows the chosen path yields and the predicate keeps.

        Returns ``(rows, scanned, index_name, snapshot)``.  The index
        narrows the candidates; the whole predicate still runs over them
        (residual conjuncts, exact LIKE semantics).  Callers copy what
        they hand out and mutate only through the table.
        """
        spec, snapshot = self.choose(params)
        kind = spec[0]
        executor, table = self.executor, self.table
        used_index: Optional[str] = None
        if kind == "full":
            candidates = self.rows
            scanned = len(candidates)
            executor.full_scans += 1
        else:
            if kind == "eq":
                candidates = table.index_lookup(spec[1], spec[2], copy=False)
            elif kind == "prefix":
                candidates = table.prefix_lookup(spec[1], spec[2], copy=False)
                executor.prefix_scans += 1
            else:
                lo, hi = spec[2], spec[3]
                candidates = table.range_lookup(
                    spec[1],
                    lo[0] if lo else None,
                    hi[0] if hi else None,
                    lo_inclusive=lo[1] if lo else True,
                    hi_inclusive=hi[1] if hi else True,
                    copy=False,
                )
                executor.range_scans += 1
            scanned = max(1, len(candidates))
            used_index = f"{self.name}.{spec[1]}"
            executor.index_scans += 1
        predicate = self.predicate
        if self.deferred is not None:
            rows = [
                row for row in candidates
                if (predicate is None or predicate(row, params))
                and self._survives(row, params)
            ]
        elif predicate is None:
            rows = list(candidates)
        else:
            rows = [row for row in candidates if predicate(row, params)]
        return rows, scanned, used_index, snapshot

    def _survives(self, row: Dict[str, Any], params: Tuple[Any, ...]) -> bool:
        """A join's first pass over the conjuncts after the leading run,
        on the qualified row: an EvaluationError means a joined table's
        column is not visible yet, and keeps the row for the post-join
        pass."""
        visible = {qualified: row[key] for key, qualified in self.pairs}
        try:
            return bool(self.deferred(visible, params))
        except EvaluationError:
            return True


class _JoinStep:
    """One JOIN clause decoded against the schemas (its place in the join
    order is the only thing about it that depends on live statistics)."""

    def __init__(self, join, table: Table, base: _Scan):
        self.table = table
        self.rows = table.scan(copy=False)
        self.binding = binding = join.table.binding
        left_owner, dot, left_bare = join.left_column.partition(".")
        if not dot:
            left_owner, left_bare = None, join.left_column
        if left_owner == binding or (
            left_owner is None and table.schema.has_column(left_bare)
        ):
            self.inner_column, self.outer_column = left_bare, join.right_column
        else:
            self.inner_column = join.right_column.split(".", 1)[-1]
            self.outer_column = join.left_column
        owner, dot, _bare = self.outer_column.partition(".")
        self.outer_owner = owner if dot else None
        self.use_index = table.has_index(self.inner_column)
        self.pairs = tuple((c, f"{binding}.{c}") for c in table.schema.column_names())
        # Taken first, the outer rows are the base table's storage rows.
        self.base_key = base.resolve(self.outer_column)
        self.outer_lookup = column_lookup(self.outer_column)
        self.row_size = max(1, table.schema.estimated_row_size())

    def snapshot(self) -> tuple:
        """``(step, row_count, distinct)``: what :meth:`inner_node` needs."""
        distinct = self.table.distinct_count(self.inner_column) if self.use_index else None
        return self, len(self.rows), distinct

    def probe_cost(self) -> int:
        _step, row_count, distinct = self.snapshot()
        return row_count if distinct is None else equality_records(row_count, distinct)

    def inner_node(self, row_count: int, distinct: Optional[int]) -> PlanNode:
        if distinct is not None:
            records = equality_records(row_count, distinct)
            return PlanNode(
                op="index-eq", table=self.table.name, column=self.inner_column,
                detail=f"{self.inner_column} = {self.outer_column} (per probe)",
                est_blocks=blocks_for(records, self.row_size), est_records=records,
            )
        return PlanNode(
            op="full-scan", table=self.table.name,
            detail=f"{self.inner_column} = {self.outer_column} (scan per probe)",
            est_blocks=blocks_for(row_count, self.row_size), est_records=row_count,
        )


class PreparedStatement:
    """One statement analysed, planned and compiled against one database.

    :meth:`run` executes it; mutations are reported through the optional
    ``undo_log`` (a list of ``(table_name, op, image)`` tuples) so the
    transaction layer can roll them back.
    """

    def __init__(self, executor: "Executor", statement: Statement):
        kind = _KINDS.get(type(statement))
        if kind is None:
            raise ExecutionError(
                f"unsupported statement type {type(statement).__name__}"
            )
        self.executor = executor
        self.statement = statement
        self.kind = kind
        self.is_write = kind != "select"
        self.footprint = statement_footprint(statement)  # (reads, writes)
        reads, writes = self.footprint
        tables = {name: executor.table(name) for name in reads + writes}
        where = None if kind == "insert" else statement.where
        self.param_count = where.parameters() if where is not None else 0
        if kind == "select":
            self._prepare_select(statement, tables)
            return
        self.table = table = tables[statement.table]
        self.primary_key = table.schema.primary_key
        if kind != "insert":
            self.scan = _Scan(executor, table, where)
        if kind != "delete":
            pairs = (
                list(zip(statement.columns, statement.values))
                if kind == "insert"
                else statement.assignments
            )
            # Parameter indexes are statement-global, so every closure
            # reads the full parameter tuple.
            self.assignments = [(c, compile_expression(e)) for c, e in pairs]
            self.param_count += sum(e.parameters() for _c, e in pairs)

    def _prepare_select(self, statement: Select, tables: Dict[str, Table]) -> None:
        executor = self.executor
        base_binding = statement.table.binding if statement.joins else None
        self.scan = scan = _Scan(
            executor, tables[statement.table.name], statement.where, base_binding
        )
        self.joins = [
            _JoinStep(join, tables[join.table.name], scan) for join in statement.joins
        ]
        self.inner_predicate = self.residual = None
        resolve = scan.resolve  # of the rows that reach ORDER BY and projection
        if self.joins:
            resolve = self._split_where(statement, base_binding)
            refs = [statement.table, *(join.table for join in statement.joins)]
            self.star_declared = [
                f"{ref.binding}.{c}"
                for ref in refs
                for c in tables[ref.name].schema.column_names()
            ]
        else:
            self.star_declared = scan.table.schema.column_names()
        self.star_sorted = sorted(set(self.star_declared))
        self.is_aggregate = statement.is_aggregate
        self.columns = [item.output_name for item in statement.items]
        # (output name, aggregate function or None, input getter or None)
        self.items = [
            (
                item.output_name,
                item.function if isinstance(item, Aggregate) else None,
                None if item.column is None else _getter(item.column, resolve),
            )
            for item in statement.items
        ]
        self.group_key = (
            None if statement.group_by is None else _getter(statement.group_by, resolve)
        )
        self.sort_key = None
        if statement.order_by is not None:
            order = self.order = _getter(statement.order_by.column, resolve)

            def sort_key(row: Dict[str, Any]):
                value = order(row)
                # None sorts first; mixed types sort by repr as a last resort.
                return (value is None, value if value is not None else 0)

            self.sort_key = sort_key

    def _split_where(self, statement: Select, base_binding: str):
        """Split WHERE for the post-join pass; returns the resolver of
        joined rows (None when their columns cannot be proven).

        One join: a combined row's keys are ``base.c`` and ``inner.c``,
        so a name is proven when it is qualified by a binding that has
        the column, or bare and in exactly one of the two tables.  When
        the leading run means the same on the combined row as on the
        base row it is not re-evaluated, the inner-only conjuncts right
        after it become ``inner_predicate`` and the rest ``residual`` —
        evaluation order is unchanged.  Otherwise, and for several
        joins, ``residual`` is the whole WHERE.
        """
        where = statement.where
        step = self.joins[0]
        if len(self.joins) > 1 or step.binding == base_binding:
            self.residual = None if where is None else compile_expression(where)
            return None
        sides = {
            base_binding: self.scan.table.schema.column_map,
            step.binding: step.table.schema.column_map,
        }

        def resolver(bindings: tuple, qualified: bool):
            def resolve(name: str) -> Optional[str]:
                owner, dot, bare = name.partition(".")
                if dot:
                    owners = [owner] if bare in sides.get(owner, ()) else []
                else:
                    bare = name
                    owners = [b for b, columns in sides.items() if name in columns]
                if len(owners) != 1 or owners[0] not in bindings:
                    return None
                return f"{owners[0]}.{bare}" if qualified else bare

            return resolve

        combined = resolver((base_binding, step.binding), True)
        conjuncts = _conjuncts(where)
        start = 0
        on_base = resolver((base_binding,), False)
        if all(resolves(c, on_base) for c in conjuncts[: self.scan.lead]):
            start = end = self.scan.lead
            on_inner = resolver((step.binding,), False)
            while end < len(conjuncts) and resolves(conjuncts[end], on_inner):
                end += 1
            self.inner_predicate = _conjunction(conjuncts[start:end], on_inner)
            start = end
        self.residual = _conjunction(conjuncts[start:], combined)
        return combined

    # -- execution ------------------------------------------------------------
    def _arity_error(self, params: Tuple[Any, ...]) -> ExecutionError:
        return ExecutionError(
            f"statement takes {self.param_count} parameters, got {len(params)}"
        )

    def run(self, params: Tuple[Any, ...], undo_log: Optional[list] = None) -> ResultSet:
        """Bind ``params`` (their count is all there is to check) and execute."""
        if len(params) != self.param_count:
            raise self._arity_error(params)
        if self.kind == "select":
            return self._select(params)
        if self.kind == "insert":
            return self._insert(params, undo_log)
        return self._change(params, undo_log)

    def _select(self, params: Tuple[Any, ...]) -> ResultSet:
        rows, scanned, used_index, snapshot = self.scan.matches(params)
        joined: tuple = ()
        if self.joins:
            rows, scanned, joined = self._join(rows, scanned, params)
        plan = (self, snapshot, joined)
        statement = self.statement
        # Rows are live storage dicts (single table) or fresh combined
        # dicts (joins); everything below only reads them.
        if self.group_key is not None:
            result_rows = self._grouped(rows)
            if statement.order_by is not None:
                # ORDER BY after GROUP BY sorts the *output* rows, whose
                # keys are output names — resolve aliases and raw source
                # columns to the matching output name first.
                key_name = _resolve_group_order_key(statement)
                result_rows.sort(
                    key=lambda r: (r.get(key_name) is None, r.get(key_name)),
                    reverse=statement.order_by.descending,
                )
            if statement.limit is not None:
                result_rows = result_rows[: statement.limit]
            return ResultSet(self.columns, result_rows, scanned, used_index, 0, plan)
        if self.is_aggregate:
            return ResultSet(
                self.columns, [_fold(self.items, rows, False)], scanned, used_index,
                0, plan,
            )
        # Sorting happens on the full rows *before* projection, so ORDER BY
        # may name columns absent from the select list.
        if self.sort_key is not None:
            descending = statement.order_by.descending
            try:
                rows.sort(key=self.sort_key, reverse=descending)
            except TypeError:
                order = self.order
                rows.sort(key=lambda r: repr(order(r)), reverse=descending)
        if statement.limit is not None:
            rows = rows[: statement.limit]
        if statement.items:
            columns = self.columns
            items = self.items
            rows = [{name: get(row) for name, _f, get in items} for row in rows]
        else:
            columns = self.star_sorted if rows else self.star_declared
            if not self.joins:
                rows = [dict(row) for row in rows]
        return ResultSet(columns, rows, scanned, used_index, 0, plan)

    def _grouped(self, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """GROUP BY evaluation: one output row per distinct key.

        Plain select items must reference the grouping column (or a column
        functionally dependent on it within the group — the value is taken
        from the group's first row, as MySQL 4 permitted).
        """
        if not self.items:
            raise ExecutionError("SELECT * with GROUP BY is not supported")
        group_key = self.group_key
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for row in rows:
            groups.setdefault(group_key(row), []).append(row)
        return [_fold(self.items, group, True) for group in groups.values()]

    # -- joins ----------------------------------------------------------------
    def _join_order(self) -> List[_JoinStep]:
        """Join order chosen greedily by estimated inner per-probe cost.

        Only joins whose outer side is resolvable from the already-joined
        bindings are eligible at each step; ties keep statement order (so
        single-join statements — all of the canned workloads — are
        planned exactly as written).
        """
        if len(self.joins) == 1:
            return self.joins
        available = {self.statement.table.binding}
        remaining = list(self.joins)
        steps: List[_JoinStep] = []
        while remaining:
            eligible = [
                step for step in remaining
                if step.outer_owner is None or step.outer_owner in available
            ]
            best = min(eligible or remaining, key=_JoinStep.probe_cost)
            steps.append(best)
            remaining.remove(best)
            available.add(best.binding)
        return steps

    def _join(
        self, rows: List[Dict[str, Any]], scanned: int, params: Tuple[Any, ...]
    ) -> Tuple[List[Dict[str, Any]], int, tuple]:
        """Left-deep nested-loop join with inner index acceleration.

        ``rows`` are the base table's surviving storage rows; they are
        qualified only when an inner row joins them.  Returns the
        combined rows, the running ``scanned`` and the step snapshots.
        """
        executor = self.executor
        outer_pairs = self.scan.pairs  # None once rows are qualified dicts
        inner_predicate = self.inner_predicate
        snapshots = []
        for step in self._join_order():
            key = step.base_key if outer_pairs is not None else None
            if outer_pairs is not None and key is None:
                # The ON clause names no base column: look it up the slow
                # way, on qualified rows, and raise what that raises.
                rows = [{q: row[c] for c, q in outer_pairs} for row in rows]
                outer_pairs = None
            lookup = step.outer_lookup
            table, column, inner_pairs = step.table, step.inner_column, step.pairs
            snapshots.append(step.snapshot())
            inner_size = len(step.rows)
            joined: List[Dict[str, Any]] = []
            for outer in rows:
                value = outer[key] if key is not None else lookup(outer, params)
                if step.use_index:
                    matches = table.index_lookup(column, value, copy=False)
                    scanned += max(1, len(matches))
                else:
                    matches = [r for r in step.rows if r.get(column) == value]
                    scanned += inner_size
                for inner in matches:
                    if inner_predicate is not None and not inner_predicate(inner, params):
                        continue
                    if outer_pairs is None:
                        combined = dict(outer)
                    else:
                        combined = {q: outer[c] for c, q in outer_pairs}
                    for c, q in inner_pairs:
                        combined[q] = inner[c]
                    joined.append(combined)
            if step.use_index:
                executor.join_index_lookups += len(rows)
            else:
                executor.join_full_scans += len(rows)
            rows, outer_pairs, inner_predicate = joined, None, None
        # Re-apply what is left of WHERE now that all join columns are
        # visible (the first pass already pruned what it could see).
        residual = self.residual
        if residual is not None:
            rows = [row for row in rows if residual(row, params)]
        return rows, scanned, tuple(snapshots)

    # -- EXPLAIN --------------------------------------------------------------
    def explain(self, params: Tuple[Any, ...] = ()) -> QueryPlan:
        """The plan execution would choose now, without executing.

        Chooses against live statistics like :meth:`run` but fetches
        nothing and bumps no counters.
        """
        if len(params) != self.param_count:
            raise self._arity_error(params)
        if self.kind == "insert":
            node = PlanNode(
                op="insert", table=self.table.name, detail="1 row",
                est_blocks=1, est_records=1,
            )
            return QueryPlan(node, "insert")
        _spec, snapshot = self.scan.choose(params)
        joined: tuple = ()
        if self.kind == "select" and self.joins:
            joined = tuple(step.snapshot() for step in self._join_order())
        return self.plan_from(snapshot, joined)

    def plan_from(self, snapshot: tuple, joined: tuple) -> QueryPlan:
        """The plan for the statistics captured in the two snapshots."""
        node = self.scan.plan_node(*snapshot)
        for step, row_count, distinct in joined:
            inner = step.inner_node(row_count, distinct)
            node = PlanNode(
                op="nested-loop-join", table=step.table.name,
                detail=f"{step.outer_column} = {step.binding}.{step.inner_column}",
                est_blocks=node.est_blocks
                + node.est_records * max(1, inner.est_blocks),
                est_records=node.est_records * max(1, inner.est_records),
                children=(node, inner),
            )
        return QueryPlan(node, self.kind)

    # -- mutations ------------------------------------------------------------
    def write_targets(self, params: Tuple[Any, ...]) -> List[Tuple[str, Any]]:
        """The ``(table, key)`` pairs a mutation will touch — used for locking.

        For INSERTs this is the new primary key; for UPDATE/DELETE the
        matching rows' keys (a dry run of the scan, counted like one), or
        a whole-table sentinel when that cannot be evaluated.  SELECTs
        return no targets.  Arity is checked first: a statement that
        cannot run must not lock anything.
        """
        if len(params) != self.param_count:
            raise self._arity_error(params)
        if self.kind == "select":
            return []
        name = self.table.name
        if self.kind == "insert":
            for column, value_fn in self.assignments:
                if column == self.primary_key:
                    return [(name, value_fn(EMPTY_ROW, params))]
            return [(name, ("*",))]
        try:
            rows = self.scan.matches(params)[0]
        except (ExecutionError, EvaluationError):
            return [(name, ("*",))]
        return [(name, row[self.primary_key]) for row in rows]

    def _insert(self, params: Tuple[Any, ...], undo_log: Optional[list]) -> ResultSet:
        values = {column: fn(EMPTY_ROW, params) for column, fn in self.assignments}
        row = self.table.insert(values)
        if undo_log is not None:
            undo_log.append((self.table.name, "insert", row[self.primary_key]))
        return ResultSet([], [], affected=1, rows_scanned=1)

    def _change(self, params: Tuple[Any, ...], undo_log: Optional[list]) -> ResultSet:
        """UPDATE and DELETE: scan for the target rows, then mutate each."""
        targets, scanned, used_index, snapshot = self.scan.matches(params)
        table, pk, kind = self.table, self.primary_key, self.kind
        changes = None
        if kind == "update":
            changes = {column: fn(EMPTY_ROW, params) for column, fn in self.assignments}
        for key in [row[pk] for row in targets]:
            before = table.delete(key) if changes is None else table.update(key, changes)
            if undo_log is not None:
                undo_log.append((table.name, kind, before))
        return ResultSet(
            [], [], scanned, used_index, len(targets), (self, snapshot, ())
        )


class Executor:
    """The tables statements run against, plus access-path evidence.

    The counters are per instance (never module-global: serial sweeps
    share one process across cells and would accumulate).  Statements
    are prepared against this object (``PreparedStatement(executor,
    ast)``); :class:`~repro.rdbms.engine.Database` keeps those of its
    SQL texts.
    """

    def __init__(self, tables: Dict[str, Table]):
        self.tables = tables
        self.index_scans = 0
        self.full_scans = 0
        self.range_scans = 0
        self.prefix_scans = 0
        self.join_index_lookups = 0
        self.join_full_scans = 0
        # The reference the planner is checked against: ignore every
        # index candidate and scan.  Read per execution, not at prepare.
        self.force_full_scans = False

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise ExecutionError(f"no such table {name!r}") from None


def _fold(items: list, rows: List[Dict[str, Any]], grouped: bool) -> Dict[str, Any]:
    """One output row over ``rows``: aggregates folded, and — within a
    group — plain columns taken from the first row."""
    output: Dict[str, Any] = {}
    for name, function, get in items:
        if function is None:
            if not grouped:
                raise ExecutionError(
                    "mixing aggregates and plain columns requires GROUP BY, "
                    "which is not supported"
                )
            output[name] = get(rows[0])
            continue
        if get is None:  # COUNT(*)
            output[name] = len(rows)
            continue
        values = [value for value in map(get, rows) if value is not None]
        if function == "COUNT":
            output[name] = len(values)
        elif not values:
            output[name] = None
        elif function == "MAX":
            output[name] = max(values)
        elif function == "MIN":
            output[name] = min(values)
        elif function == "SUM":
            output[name] = sum(values)
        elif function == "AVG":
            output[name] = sum(values) / len(values)
        else:  # pragma: no cover - parser restricts functions
            raise ExecutionError(f"unknown aggregate {function}")
    return output


def _resolve_group_order_key(statement: Select) -> str:
    """Resolve a GROUP BY statement's ORDER BY target to an output-row key.

    Output rows are keyed by output names (aliases included), so ORDER BY
    must match against those first; a raw source column that was aliased
    in the select list maps to its alias.  Unresolvable names keep their
    text (the sort then sees only missing keys, preserving input order —
    the legacy behavior for genuinely unknown columns).
    """
    target = statement.order_by.column
    output_names = [item.output_name for item in statement.items]
    if target in output_names:
        return target
    bare = target.split(".", 1)[-1]
    for item in statement.items:
        if isinstance(item, Aggregate):
            if item.column is not None and item.column.split(".", 1)[-1] == bare:
                return item.output_name
        elif item.column == target or item.column.split(".", 1)[-1] == bare:
            return item.output_name
    return target


def _describe_range(column: str, lo, hi) -> str:
    if lo is not None and hi is not None:
        left = ">=" if lo[1] else ">"
        right = "<=" if hi[1] else "<"
        return f"{column} {left} {lo[0]!r} AND {column} {right} {hi[0]!r}"
    if lo is not None:
        return f"{column} {'>=' if lo[1] else '>'} {lo[0]!r}"
    return f"{column} {'<=' if hi[1] else '<'} {hi[0]!r}"
