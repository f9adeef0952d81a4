"""The executor as it stood before prepared statements (PR 16's parent,
commit 04fe0a9) — the reference ``test_prepared_oracle.py`` compares against.

A literal copy of that ``executor.py`` (``_plan_scan``, ``_scan_with_plan``,
``_execute_join``, ``_join_inner_node``, ...) and of ``plan.scan_node``;
only the imports changed: they are absolute, and ``compiled`` is the
un-memoized ``compile_expression``, which compiles the same closures.
It costs every scan against live statistics and builds its plan nodes
eagerly on every execution, so what it reports is what a statement's
rows, ``rows_scanned``, ``used_index``, scan counters and EXPLAIN text
must still be.  Do not "fix" or modernise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.rdbms.compiler import EMPTY_ROW, column_lookup
from repro.rdbms.compiler import compile_expression as compiled
from repro.rdbms.expressions import (
    And,
    Comparison,
    EvaluationError,
    Expression,
    Like,
    like_prefix,
)
from repro.rdbms.lru import LruCache
from repro.rdbms.plan import AccessChoice, PlanNode, QueryPlan, choose_path
from repro.rdbms.sql import Aggregate, Delete, Insert, Select, Statement, Update
from repro.rdbms.stats import TableStats
from repro.rdbms.storage import Table

__all__ = ["ResultSet", "ExecutionError", "Executor"]


def scan_node(
    chosen: AccessChoice, considered: List[AccessChoice]
) -> PlanNode:
    """A leaf node for ``chosen``, recording every rejected alternative."""
    rejected = tuple(c for c in considered if c is not chosen)
    return PlanNode(
        op=chosen.kind,
        table=chosen.table,
        detail=chosen.detail,
        est_blocks=chosen.est_blocks,
        est_records=chosen.est_records,
        column=chosen.column,
        considered=rejected,
    )

_PLAN_CACHE_LIMIT = 4096


class ExecutionError(Exception):
    """Raised when a statement cannot be executed."""


@dataclass
class ResultSet:
    """Rows produced by a statement plus execution cost evidence."""

    columns: List[str]
    rows: List[Dict[str, Any]]
    rows_scanned: int = 0
    used_index: Optional[str] = None
    affected: int = 0  # for INSERT/UPDATE/DELETE
    plan: Optional[QueryPlan] = None  # chosen access paths, EXPLAIN-renderable

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
        if self.plan is None:
            return "QUERY PLAN (none recorded)"
        return self.plan.render()


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


@dataclass(frozen=True)
class _ScanAnalysis:
    """Stats-independent access-path structure of one (WHERE, table) pair.

    ``eq`` is the *leftmost* equality-indexed conjunct — preserving the
    legacy planner's choice when several equality conjuncts are indexed,
    so existing workloads scan the exact same buckets.  ``ranges`` maps
    ordered-indexed non-TEXT columns to their bound closures; ``prefixes``
    lists LIKE conjuncts over ordered-indexed TEXT columns whose pattern
    may turn out prefix-shaped at execution time.
    """

    eq: Optional[Tuple[str, Any]] = None  # (column, value_fn)
    ranges: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    prefixes: Tuple[Tuple[str, Any], ...] = ()  # (column, pattern_fn)
    has_candidates: bool = field(default=False)


def _visible_column(column: str, qualify_as: Optional[str]) -> Optional[str]:
    """The bare column name if ``column`` refers to this table, else None."""
    if qualify_as is not None and "." in column:
        if column.split(".", 1)[0] != qualify_as:
            return None
    return column.split(".", 1)[-1]


class Executor:
    """Executes parsed statements against a dict of tables.

    Mutations are reported back to the caller through an optional
    ``undo_log`` (list of ``(table_name, op, image)`` tuples) so the
    transaction layer can roll them back.

    All memo caches are per-instance bounded LRUs: a long process that
    churns through many databases/statements (serial experiment sweeps)
    neither pins dead statements forever nor silently stops admitting
    new plans once full.
    """

    def __init__(self, tables: Dict[str, Table]):
        self.tables = tables
        # Access-path evidence, per instance (never module-global: serial
        # sweeps share one process across cells and would accumulate).
        self.index_scans = 0
        self.full_scans = 0
        self.range_scans = 0
        self.prefix_scans = 0
        self.join_index_lookups = 0
        self.join_full_scans = 0
        # Benchmark/debug knob: ignore every index candidate and scan.
        self.force_full_scans = False
        # id()-keyed caches pin their keyed objects inside the value; the
        # LRU evicts cold entries (dropping the pin), so id reuse after
        # eviction misses and recomputes instead of returning stale plans.
        self._param_counts = LruCache(_PLAN_CACHE_LIMIT)
        self._scan_plans = LruCache(_PLAN_CACHE_LIMIT)
        self._qualified_keys = LruCache(_PLAN_CACHE_LIMIT)
        self._select_plans = LruCache(_PLAN_CACHE_LIMIT)

    def _table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise ExecutionError(f"no such table {name!r}") from None

    # -- memoized statement shape helpers -------------------------------------
    def _count_parameters(self, statement: Statement) -> int:
        entry = self._param_counts.get(id(statement))
        if entry is not None:
            return entry[1]
        total = 0
        if isinstance(statement, Select):
            if statement.where is not None:
                total += statement.where.parameters()
        elif isinstance(statement, Insert):
            total += sum(value.parameters() for value in statement.values)
        elif isinstance(statement, Update):
            total += sum(expr.parameters() for _c, expr in statement.assignments)
            if statement.where is not None:
                total += statement.where.parameters()
        elif isinstance(statement, Delete):
            if statement.where is not None:
                total += statement.where.parameters()
        self._param_counts.put(id(statement), (statement, total))
        return total

    def _qualified_key_pairs(self, schema, prefix: str) -> tuple:
        cache_key = (id(schema), prefix)
        entry = self._qualified_keys.get(cache_key)
        if entry is not None:
            return entry[1]
        pairs = tuple((name, prefix + name) for name in schema.column_names())
        self._qualified_keys.put(cache_key, (schema, pairs))
        return pairs

    def _select_plan(self, statement: Select) -> tuple:
        entry = self._select_plans.get(id(statement))
        if entry is not None:
            return entry[1]
        is_aggregate = statement.is_aggregate
        is_star = statement.is_star
        columns = None if is_star else [item.output_name for item in statement.items]
        getters = None
        if not is_aggregate and not is_star:
            getters = [
                (item.output_name, column_lookup(item.column))
                for item in statement.items
            ]
        order_lookup = (
            column_lookup(statement.order_by.column)
            if statement.order_by is not None
            else None
        )
        plan = (is_aggregate, is_star, columns, getters, order_lookup)
        self._select_plans.put(id(statement), (statement, plan))
        return plan

    # -- entry ---------------------------------------------------------------
    def execute(
        self,
        statement: Statement,
        params: Tuple[Any, ...] = (),
        undo_log: Optional[list] = None,
    ) -> ResultSet:
        expected = self._count_parameters(statement)
        if expected != len(params):
            raise ExecutionError(
                f"statement takes {expected} parameters, got {len(params)}"
            )
        if isinstance(statement, Select):
            return self._execute_select(statement, params)
        if isinstance(statement, Insert):
            return self._execute_insert(statement, params, undo_log)
        if isinstance(statement, Update):
            return self._execute_update(statement, params, undo_log)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, params, undo_log)
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    # -- access-path planning -------------------------------------------------
    def _analyze_scan(
        self, table: Table, where: Optional[Expression], qualify_as: Optional[str]
    ) -> _ScanAnalysis:
        """The cached, stats-independent half of scan planning."""
        cache_key = (id(where), id(table.schema), qualify_as)
        entry = self._scan_plans.get(cache_key)
        if entry is not None:
            return entry[2]
        eq = None
        range_specs: Dict[str, List[Tuple[str, Any]]] = {}
        prefixes: List[Tuple[str, Any]] = []
        for conjunct in _conjuncts(where):
            if isinstance(conjunct, Like):
                bare = _visible_column(conjunct.column.name, qualify_as)
                if (
                    bare is not None
                    and table.has_ordered_index(bare)
                    and table.ordered_index_is_casefolded(bare)
                ):
                    prefixes.append((bare, compiled(conjunct.pattern)))
                continue
            if not isinstance(conjunct, Comparison):
                continue
            binding = conjunct.equality_binding()
            if binding is not None:
                column, value_expr = binding
                bare = _visible_column(column, qualify_as)
                if bare is not None and eq is None and table.has_index(bare):
                    eq = (bare, compiled(value_expr))
                continue
            range_bind = conjunct.range_binding()
            if range_bind is not None:
                column, operator, value_expr = range_bind
                bare = _visible_column(column, qualify_as)
                # TEXT ordered indexes hold casefolded keys, which only
                # preserve *prefix* order — range probes would be wrong
                # (e.g. 'a' > 'B' flips under casefolding), so ranges are
                # limited to non-TEXT ordered indexes.
                if (
                    bare is not None
                    and table.has_ordered_index(bare)
                    and not table.ordered_index_is_casefolded(bare)
                ):
                    range_specs.setdefault(bare, []).append(
                        (operator, compiled(value_expr))
                    )
        analysis = _ScanAnalysis(
            eq=eq,
            ranges=tuple(
                (column, tuple(bounds)) for column, bounds in range_specs.items()
            ),
            prefixes=tuple(prefixes),
            has_candidates=bool(eq or range_specs or prefixes),
        )
        self._scan_plans.put(cache_key, (where, table.schema, analysis))
        return analysis

    def _plan_scan(
        self,
        table: Table,
        where: Optional[Expression],
        params: Tuple[Any, ...],
        qualify_as: Optional[str] = None,
    ) -> Tuple[AccessChoice, tuple, List[AccessChoice]]:
        """Cost every candidate access path against live statistics.

        Returns ``(chosen, fetch_spec, considered)`` where ``fetch_spec``
        carries the runtime probe values: ``("eq", column, value)``,
        ``("prefix", column, prefix)``, ``("range", column, lo, hi)``
        (bounds are ``(value, inclusive)`` or None), or ``("full",)``.
        """
        analysis = self._analyze_scan(table, where, qualify_as)
        stats = TableStats(table)
        full = AccessChoice(
            "full-scan", table.name, None, "all rows",
            stats.table_blocks(), stats.row_count,
        )
        if not analysis.has_candidates or self.force_full_scans:
            return full, ("full",), [full]
        candidates: List[AccessChoice] = []
        specs: List[tuple] = []
        if analysis.eq is not None:
            column, value_fn = analysis.eq
            records = stats.equality_records(column)
            candidates.append(
                AccessChoice(
                    "index-eq", table.name, column, f"{column} = <probe>",
                    stats.blocks_for(records), records,
                )
            )
            specs.append(("eq", column, value_fn(EMPTY_ROW, params)))
        for column, pattern_fn in analysis.prefixes:
            pattern = pattern_fn(EMPTY_ROW, params)
            prefix = like_prefix(str(pattern)) if pattern is not None else None
            if prefix is None:
                continue
            records = stats.prefix_records(column)
            candidates.append(
                AccessChoice(
                    "index-prefix", table.name, column,
                    f"{column} LIKE '{prefix}%'",
                    stats.blocks_for(records), records,
                )
            )
            specs.append(("prefix", column, prefix))
        for column, bounds in analysis.ranges:
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
                    "index-range", table.name, column,
                    _describe_range(column, lo, hi),
                    stats.blocks_for(records), records,
                )
            )
            specs.append(("range", column, lo, hi))
        candidates.append(full)
        specs.append(("full",))
        chosen = choose_path(candidates)
        return chosen, specs[candidates.index(chosen)], candidates

    # -- SELECT ---------------------------------------------------------------
    def _scan_with_plan(
        self,
        table: Table,
        where: Optional[Expression],
        params: Tuple[Any, ...],
        qualify_as: Optional[str] = None,
        copy_rows: bool = True,
    ) -> Tuple[List[Dict[str, Any]], int, Optional[str], PlanNode]:
        """Rows of ``table`` matching ``where``.

        Returns ``(rows, scanned, index_name, plan_node)``.
        ``copy_rows=False`` returns live storage dicts for matches (the
        mutation paths only read the primary key from them); qualified
        rows are always fresh dicts.
        """
        chosen, spec, considered = self._plan_scan(table, where, params, qualify_as)
        kind = spec[0]
        used_index: Optional[str] = None
        if kind == "eq":
            candidates = table.index_lookup(spec[1], spec[2], copy=False)
            scanned = max(1, len(candidates))
            used_index = f"{table.name}.{spec[1]}"
            self.index_scans += 1
        elif kind == "prefix":
            candidates = table.prefix_lookup(spec[1], spec[2], copy=False)
            scanned = max(1, len(candidates))
            used_index = f"{table.name}.{spec[1]}"
            self.index_scans += 1
            self.prefix_scans += 1
        elif kind == "range":
            _kind, column, lo, hi = spec
            candidates = table.range_lookup(
                column,
                lo[0] if lo else None,
                hi[0] if hi else None,
                lo_inclusive=lo[1] if lo else True,
                hi_inclusive=hi[1] if hi else True,
                copy=False,
            )
            scanned = max(1, len(candidates))
            used_index = f"{table.name}.{column}"
            self.index_scans += 1
            self.range_scans += 1
        else:
            candidates = table.scan(copy=False)
            scanned = len(table)
            self.full_scans += 1
        node = scan_node(chosen, considered)
        # The index narrowed the candidates; the full predicate still
        # runs over them (residual conjuncts, exact LIKE semantics).
        predicate = compiled(where) if where is not None else None
        rows: List[Dict[str, Any]] = []
        append = rows.append
        if qualify_as is None:
            if predicate is None:
                if copy_rows:
                    for row in candidates:
                        append(dict(row))
                else:
                    rows.extend(candidates)
            elif copy_rows:
                for row in candidates:
                    if predicate(row, params):
                        append(dict(row))
            else:
                for row in candidates:
                    if predicate(row, params):
                        append(row)
            return rows, scanned, used_index, node
        pairs = self._qualified_key_pairs(table.schema, qualify_as + ".")
        for row in candidates:
            visible = {qualified: row[key] for key, qualified in pairs}
            if predicate is not None:
                try:
                    if not predicate(visible, params):
                        continue
                except EvaluationError:
                    # Joined-table columns are not visible yet; defer
                    # filtering to the post-join pass.
                    pass
            append(visible)
        return rows, scanned, used_index, node

    def _execute_select(self, statement: Select, params: Tuple[Any, ...]) -> ResultSet:
        base_table = self._table(statement.table.name)

        if statement.joins:
            rows, scanned, used_index, plan_root = self._execute_join(
                statement, base_table, params
            )
        else:
            rows, scanned, used_index, plan_root = self._scan_with_plan(
                base_table, statement.where, params
            )
        plan = QueryPlan(plan_root, "select")

        if statement.group_by is not None:
            result_rows = self._grouped(statement, rows)
            columns = [item.output_name for item in statement.items]
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
            return ResultSet(
                columns, result_rows, rows_scanned=scanned, used_index=used_index,
                plan=plan,
            )

        is_aggregate, is_star, columns, getters, order_lookup = self._select_plan(
            statement
        )

        # Sorting happens on the full rows *before* projection, so ORDER BY
        # may name columns absent from the select list.
        if order_lookup is not None and not is_aggregate:

            def sort_key(row: Dict[str, Any]):
                value = order_lookup(row, params)
                # None sorts first; mixed types sort by repr as a last resort.
                return (value is None, value if value is not None else 0)

            try:
                rows.sort(key=sort_key, reverse=statement.order_by.descending)
            except TypeError:
                rows.sort(
                    key=lambda r: repr(order_lookup(r, params)),
                    reverse=statement.order_by.descending,
                )

        if statement.limit is not None and not is_aggregate:
            rows = rows[: statement.limit]

        # Projection / aggregation.
        if is_aggregate:
            output = self._aggregate(statement, rows)
            result_rows = [output]
        elif is_star:
            columns = sorted(rows[0].keys()) if rows else self._star_columns(statement)
            result_rows = rows
        else:
            result_rows = [
                {name: getter(row, params) for name, getter in getters}
                for row in rows
            ]

        return ResultSet(
            columns, result_rows, rows_scanned=scanned, used_index=used_index,
            plan=plan,
        )

    def _star_columns(self, statement: Select) -> List[str]:
        if statement.joins:
            columns = []
            for ref in [statement.table] + [j.table for j in statement.joins]:
                table = self._table(ref.name)
                columns.extend(f"{ref.binding}.{c}" for c in table.schema.column_names())
            return columns
        return self._table(statement.table.name).schema.column_names()

    # -- joins ----------------------------------------------------------------
    def _join_steps(self, statement: Select) -> List[tuple]:
        """Join order chosen greedily by estimated inner per-probe cost.

        Each step is ``(join, inner_table, inner_binding, inner_column,
        outer_column, use_index)``.  Only joins whose outer side is
        resolvable from the already-joined bindings are eligible at each
        step; ties keep statement order (so single-join statements — all
        of the canned workloads — are planned exactly as written).
        """
        available = {statement.table.binding}
        remaining = list(statement.joins)
        steps: List[tuple] = []
        while remaining:
            decoded = []
            for position, join in enumerate(remaining):
                inner_table = self._table(join.table.name)
                inner_binding = join.table.binding
                left_bare = join.left_column.split(".", 1)[-1]
                right_bare = join.right_column.split(".", 1)[-1]
                left_owner = (
                    join.left_column.split(".", 1)[0]
                    if "." in join.left_column
                    else None
                )
                if left_owner == inner_binding or (
                    left_owner is None and inner_table.schema.has_column(left_bare)
                ):
                    inner_column, outer_column = left_bare, join.right_column
                else:
                    inner_column, outer_column = right_bare, join.left_column
                outer_owner = (
                    outer_column.split(".", 1)[0] if "." in outer_column else None
                )
                eligible = outer_owner is None or outer_owner in available
                use_index = inner_table.has_index(inner_column)
                if use_index:
                    probe_cost = TableStats(inner_table).equality_records(inner_column)
                else:
                    probe_cost = len(inner_table)
                decoded.append(
                    (eligible, probe_cost, position, join, inner_table,
                     inner_binding, inner_column, outer_column, use_index)
                )
            eligible_steps = [d for d in decoded if d[0]] or decoded
            best = min(eligible_steps, key=lambda d: (d[1], d[2]))
            (_e, _cost, _pos, join, inner_table, inner_binding,
             inner_column, outer_column, use_index) = best
            steps.append(
                (join, inner_table, inner_binding, inner_column,
                 outer_column, use_index)
            )
            remaining.remove(join)
            available.add(inner_binding)
        return steps

    def _join_inner_node(
        self, inner_table: Table, inner_column: str, outer_column: str,
        use_index: bool,
    ) -> PlanNode:
        stats = TableStats(inner_table)
        if use_index:
            records = stats.equality_records(inner_column)
            return PlanNode(
                op="index-eq", table=inner_table.name, column=inner_column,
                detail=f"{inner_column} = {outer_column} (per probe)",
                est_blocks=stats.blocks_for(records), est_records=records,
            )
        return PlanNode(
            op="full-scan", table=inner_table.name,
            detail=f"{inner_column} = {outer_column} (scan per probe)",
            est_blocks=stats.table_blocks(), est_records=stats.row_count,
        )

    def _execute_join(
        self, statement: Select, base_table: Table, params: Tuple[Any, ...]
    ) -> Tuple[List[Dict[str, Any]], int, Optional[str], PlanNode]:
        """Left-deep nested-loop join with inner index acceleration."""
        where = statement.where
        base_binding = statement.table.binding
        rows, scanned, used_index, plan_node = self._scan_with_plan(
            base_table, where, params, qualify_as=base_binding
        )
        for step in self._join_steps(statement):
            (_join, inner_table, inner_binding, inner_column,
             outer_column, use_inner_index) = step
            outer_lookup = column_lookup(outer_column)
            joined: List[Dict[str, Any]] = []
            append = joined.append
            inner_size = len(inner_table)
            inner_pairs = self._qualified_key_pairs(
                inner_table.schema, inner_binding + "."
            )
            for outer_row in rows:
                outer_value = outer_lookup(outer_row, params)
                if use_inner_index:
                    matches = inner_table.index_lookup(
                        inner_column, outer_value, copy=False
                    )
                    scanned += max(1, len(matches))
                    self.join_index_lookups += 1
                else:
                    matches = [
                        r
                        for r in inner_table.scan(copy=False)
                        if r.get(inner_column) == outer_value
                    ]
                    scanned += inner_size
                    self.join_full_scans += 1
                for inner_row in matches:
                    combined = dict(outer_row)
                    for key, qualified in inner_pairs:
                        combined[qualified] = inner_row[key]
                    append(combined)
            rows = joined
            inner_node = self._join_inner_node(
                inner_table, inner_column, outer_column, use_inner_index
            )
            plan_node = PlanNode(
                op="nested-loop-join", table=inner_table.name,
                detail=f"{outer_column} = {inner_binding}.{inner_column}",
                est_blocks=plan_node.est_blocks
                + plan_node.est_records * max(1, inner_node.est_blocks),
                est_records=plan_node.est_records * max(1, inner_node.est_records),
                children=(plan_node, inner_node),
            )
        # Re-apply WHERE now that all join columns are visible (cheap second
        # pass; the first pass already pruned what it could see).
        if where is not None:
            predicate = compiled(where)
            rows = [row for row in rows if predicate(row, params)]
        return rows, scanned, used_index, plan_node

    # -- grouping / aggregation ------------------------------------------------
    def _grouped(
        self, statement: Select, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """GROUP BY evaluation: one output row per distinct key.

        Plain select items must reference the grouping column (or a column
        functionally dependent on it within the group — the value is taken
        from the group's first row, as MySQL 4 permitted).
        """
        if not statement.items:
            raise ExecutionError("SELECT * with GROUP BY is not supported")
        key_lookup = column_lookup(statement.group_by)
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        order: List[Any] = []
        for row in rows:
            key = key_lookup(row, ())
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        output: List[Dict[str, Any]] = []
        for key in order:
            group_rows = groups[key]
            out_row: Dict[str, Any] = {}
            for item in statement.items:
                if isinstance(item, Aggregate):
                    out_row.update(
                        self._aggregate(
                            Select(items=(item,), table=statement.table),
                            group_rows,
                        )
                    )
                else:
                    out_row[item.output_name] = column_lookup(item.column)(
                        group_rows[0], ()
                    )
            output.append(out_row)
        return output

    def _aggregate(
        self, statement: Select, rows: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        output: Dict[str, Any] = {}
        for item in statement.items:
            if not isinstance(item, Aggregate):
                raise ExecutionError(
                    "mixing aggregates and plain columns requires GROUP BY, "
                    "which is not supported"
                )
            if item.function == "COUNT" and item.column is None:
                output[item.output_name] = len(rows)
                continue
            lookup = column_lookup(item.column)
            values = [value for value in (lookup(row, ()) for row in rows) if value is not None]
            if item.function == "COUNT":
                output[item.output_name] = len(values)
            elif not values:
                output[item.output_name] = None
            elif item.function == "MAX":
                output[item.output_name] = max(values)
            elif item.function == "MIN":
                output[item.output_name] = min(values)
            elif item.function == "SUM":
                output[item.output_name] = sum(values)
            elif item.function == "AVG":
                output[item.output_name] = sum(values) / len(values)
            else:  # pragma: no cover - parser restricts functions
                raise ExecutionError(f"unknown aggregate {item.function}")
        return output

    # -- EXPLAIN ----------------------------------------------------------------
    def explain(
        self, statement: Statement, params: Tuple[Any, ...] = ()
    ) -> QueryPlan:
        """The plan the executor would choose, without executing.

        Runs the same candidate costing as execution (against live
        statistics) but fetches nothing and bumps no counters.
        """
        expected = self._count_parameters(statement)
        if expected != len(params):
            raise ExecutionError(
                f"statement takes {expected} parameters, got {len(params)}"
            )
        if isinstance(statement, Insert):
            table = self._table(statement.table)
            node = PlanNode(
                op="insert", table=table.name, detail="1 row",
                est_blocks=1, est_records=1,
            )
            return QueryPlan(node, "insert")
        if isinstance(statement, (Update, Delete)):
            table = self._table(statement.table)
            chosen, _spec, considered = self._plan_scan(
                table, statement.where, params
            )
            kind = "update" if isinstance(statement, Update) else "delete"
            return QueryPlan(scan_node(chosen, considered), kind)
        if not isinstance(statement, Select):
            raise ExecutionError(
                f"cannot explain statement type {type(statement).__name__}"
            )
        base_table = self._table(statement.table.name)
        qualify_as = statement.table.binding if statement.joins else None
        chosen, _spec, considered = self._plan_scan(
            base_table, statement.where, params, qualify_as=qualify_as
        )
        node = scan_node(chosen, considered)
        for step in self._join_steps(statement):
            (_join, inner_table, inner_binding, inner_column,
             outer_column, use_index) = step
            inner_node = self._join_inner_node(
                inner_table, inner_column, outer_column, use_index
            )
            node = PlanNode(
                op="nested-loop-join", table=inner_table.name,
                detail=f"{outer_column} = {inner_binding}.{inner_column}",
                est_blocks=node.est_blocks
                + node.est_records * max(1, inner_node.est_blocks),
                est_records=node.est_records * max(1, inner_node.est_records),
                children=(node, inner_node),
            )
        return QueryPlan(node, "select")

    # -- mutations -----------------------------------------------------------
    def _execute_insert(
        self, statement: Insert, params: Tuple[Any, ...], undo_log: Optional[list]
    ) -> ResultSet:
        table = self._table(statement.table)
        values = {}
        for column, expr in zip(statement.columns, statement.values):
            values[column] = compiled(expr)(EMPTY_ROW, params)
        row = table.insert(values)
        if undo_log is not None:
            undo_log.append((statement.table, "insert", row[table.schema.primary_key]))
        return ResultSet([], [], affected=1, rows_scanned=1)

    def _execute_update(
        self, statement: Update, params: Tuple[Any, ...], undo_log: Optional[list]
    ) -> ResultSet:
        table = self._table(statement.table)
        targets, scanned, used_index, node = self._scan_with_plan(
            table, statement.where, params, copy_rows=False
        )
        changes = {
            column: compiled(expr)(EMPTY_ROW, params)
            for column, expr in statement.assignments
        }
        pk = table.schema.primary_key
        for row in targets:
            before = table.update(row[pk], changes)
            if undo_log is not None:
                undo_log.append((statement.table, "update", before))
        return ResultSet(
            [], [], affected=len(targets), rows_scanned=scanned,
            used_index=used_index, plan=QueryPlan(node, "update"),
        )

    def _execute_delete(
        self, statement: Delete, params: Tuple[Any, ...], undo_log: Optional[list]
    ) -> ResultSet:
        table = self._table(statement.table)
        targets, scanned, used_index, node = self._scan_with_plan(
            table, statement.where, params, copy_rows=False
        )
        pk = table.schema.primary_key
        keys = [row[pk] for row in targets]
        for key in keys:
            before = table.delete(key)
            if undo_log is not None:
                undo_log.append((statement.table, "delete", before))
        return ResultSet(
            [], [], affected=len(keys), rows_scanned=scanned,
            used_index=used_index, plan=QueryPlan(node, "delete"),
        )


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
