"""Prepared statements: analyse, choose and compile once; execute is bind + run.

A :class:`PreparedStatement` holds everything about one statement that is
a function of its AST and the schemas of the tables it names, decided
once, when :class:`~repro.rdbms.engine.Database` first sees the text:

* parameter count, kind, table footprint and the bound tables;
* per scanned table a :class:`_Scan`: its access path and the compiled
  predicate.  Column names are proven against the schema, so predicate
  and projection read ``row[key]`` from the live storage rows; a name
  that cannot be proven keeps the searching lookup and raises exactly
  where it used to;
* for a join, the decoded step, the qualified key pairs and the split of
  WHERE into the *leading run* of conjuncts proven on the base table
  (filtered on the storage row, before the probe), the run of
  inner-only conjuncts after it (tested on the probed row, before the
  combined dict is built) and the residual, tested on the combined row.

The access path is a fixed rule, taken in this order:

1. the leftmost ``col = val`` conjunct on an indexed column (the primary
   key or a hash index): an equality probe;
2. otherwise the leftmost ``BETWEEN`` on the primary key of a table whose
   key is not TEXT, when a bound is non-NULL: a range over the key order;
3. otherwise a full scan.

Only the probe values are read per call.  ``rows_scanned`` and
``used_index``, which the database server charges time from, and the
executor's scan counters are kept on every execution.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .compiler import column_lookup, compile_expression, getter, resolves, value_slot
from .expressions import And, Between, Equals, EvaluationError, Expression
from .sql import Insert, Select, Statement, Update, statement_footprint
from .storage import Table

__all__ = ["ResultSet", "ExecutionError", "Executor", "PreparedStatement"]

_KINDS = {Select: "select", Insert: "insert", Update: "update"}


class ExecutionError(Exception):
    """Raised when a statement cannot be executed."""


class ResultSet:
    """Rows produced by a statement plus execution cost evidence."""

    __slots__ = ("columns", "rows", "rows_scanned", "used_index", "affected")

    def __init__(
        self,
        columns: List[str],
        rows: List[Dict[str, Any]],
        rows_scanned: int = 0,
        used_index: Optional[str] = None,
        affected: int = 0,  # for INSERT/UPDATE
    ):
        self.columns = columns
        self.rows = rows
        self.rows_scanned = rows_scanned
        self.used_index = used_index
        self.affected = affected

    def first(self) -> Optional[Dict[str, Any]]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() on a {len(self.rows)}x{len(self.columns)} result"
            )
        return self.rows[0][self.columns[0]]


def _conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """The conjunct list of a condition (ANDs are flat: no parentheses)."""
    if expression is None:
        return []
    if type(expression) is And:
        return list(expression.parts)
    return [expression]


def _conjunction(conjuncts: List[Expression], resolve) -> Optional[Callable]:
    """One compiled predicate for ``conjuncts`` in order; None when empty."""
    if not conjuncts:
        return None
    tree = conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))
    return compile_expression(tree, resolve)


def _value(slot: Tuple[Optional[int], Any], params: Tuple[Any, ...]) -> Any:
    index, constant = slot
    return constant if index is None else params[index]


class _Scan:
    """One table's access path and predicate for one WHERE, bound once.

    ``binding`` is None for a single-table statement (``predicate`` is
    the whole WHERE) and the base binding of a join, where ``predicate``
    is only the leading run of ``lead`` conjuncts proven on this table.

    ``eq`` is ``(column, slot)`` of the leftmost equality on an indexed
    column; ``between`` the ``(low, high)`` slots of the leftmost BETWEEN
    on an ordered primary key.
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
        self.rows = table.scan()  # live, sized view of the heap
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
        self.eq = self.between = None
        primary_key = table.schema.primary_key
        for conjunct in conjuncts:
            kind = type(conjunct)
            if kind is Equals and self.eq is None:
                bare = resolve(conjunct.column.name)
                if bare is not None and table.has_index(bare):
                    self.eq = (bare, value_slot(conjunct.value))
            elif kind is Between and self.between is None and table.key_order is not None:
                if resolve(conjunct.column.name) == primary_key:
                    self.between = (value_slot(conjunct.low), value_slot(conjunct.high))
        if binding is None:
            self.predicate = None if where is None else compile_expression(where, resolve)
            return
        lead = 0
        while lead < len(conjuncts) and resolves(conjuncts[lead], resolve):
            lead += 1
        self.lead = lead
        self.predicate = _conjunction(conjuncts[:lead], resolve)
        self.pairs = tuple((c, f"{binding}.{c}") for c in table.schema.column_names())

    def matches(
        self, params: Tuple[Any, ...]
    ) -> Tuple[List[Dict[str, Any]], int, Optional[str]]:
        """Stored rows the access path yields and the predicate keeps.

        Returns ``(rows, scanned, index_name)``.  The index narrows the
        candidates; the whole predicate still runs over them.  Stored
        rows are values (see :mod:`~repro.rdbms.storage`), so callers
        hand them out as they are.
        """
        executor, table = self.executor, self.table
        column = candidates = None
        if not executor.force_full_scans:
            if self.eq is not None:
                column, (index, constant) = self.eq
                value = constant if index is None else params[index]
                candidates = table.index_lookup(column, value)
            elif self.between is not None:
                low = _value(self.between[0], params)
                high = _value(self.between[1], params)
                if low is not None or high is not None:
                    column = table.schema.primary_key
                    candidates = table.range_lookup(low, high)
                    executor.range_scans += 1
        if column is None:
            candidates = self.rows
            scanned = len(candidates)
            executor.full_scans += 1
            used_index = None
        else:
            scanned = max(1, len(candidates))
            used_index = f"{self.name}.{column}"
            executor.index_scans += 1
        predicate = self.predicate
        if predicate is None:
            rows = list(candidates)
        else:
            rows = [row for row in candidates if predicate(row, params)]
        return rows, scanned, used_index


class _JoinStep:
    """The JOIN clause decoded against the schemas."""

    def __init__(self, join, table: Table, base: _Scan):
        self.table = table
        self.rows = table.scan()
        self.binding = binding = join.table.binding
        left_owner, dot, left_bare = join.left_column.partition(".")
        if not dot:
            left_owner, left_bare = None, join.left_column
        if left_owner == binding or (
            left_owner is None and left_bare in table.schema.column_map
        ):
            self.inner_column, self.outer_column = left_bare, join.right_column
        else:
            self.inner_column = join.right_column.split(".", 1)[-1]
            self.outer_column = join.left_column
        self.use_index = table.has_index(self.inner_column)
        self.pairs = tuple((c, f"{binding}.{c}") for c in table.schema.column_names())
        # The outer rows are the base table's storage rows.
        self.base_key = base.resolve(self.outer_column)
        self.outer_lookup = column_lookup(self.outer_column)


class PreparedStatement:
    """One statement analysed and compiled against one database.

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
        pairs = (
            list(zip(statement.columns, statement.values))
            if kind == "insert"
            else statement.assignments
        )
        # Parameter indexes are statement-global: every slot indexes the
        # full parameter tuple.
        self.assignments = [(c, value_slot(e)) for c, e in pairs]
        self.param_count += sum(e.parameters() for _c, e in pairs)
        if kind == "update":
            self.scan = _Scan(executor, table, where)

    def _prepare_select(self, statement: Select, tables: Dict[str, Table]) -> None:
        executor = self.executor
        join = statement.join
        base_binding = statement.table.binding if join is not None else None
        self.scan = scan = _Scan(
            executor, tables[statement.table.name], statement.where, base_binding
        )
        self.join = None
        self.inner_predicate = self.residual = None
        resolve = scan.resolve  # of the rows that reach projection
        if join is not None:
            self.join = _JoinStep(join, tables[join.table.name], scan)
            resolve = self._split_where(statement, base_binding)
            self.star_declared = [
                f"{ref.binding}.{c}"
                for ref in (statement.table, join.table)
                for c in tables[ref.name].schema.column_names()
            ]
        else:
            self.star_declared = scan.table.schema.column_names()
        self.star_sorted = sorted(set(self.star_declared))
        self.columns = [statement.count] if statement.count else list(statement.columns)
        self.items = [(name, getter(name, resolve)) for name in statement.columns]

    def _split_where(self, statement: Select, base_binding: str):
        """Split WHERE for the post-join pass; returns the resolver of
        joined rows.

        A combined row's keys are ``base.c`` and ``inner.c``, so a name
        is proven when it is qualified by a binding that has the column,
        or bare and in exactly one of the two tables.  When the leading
        run means the same on the combined row as on the base row it is
        not re-evaluated, the inner-only conjuncts right after it become
        ``inner_predicate`` and the rest ``residual`` — evaluation order
        is unchanged.  Otherwise ``residual`` is the whole WHERE.
        """
        step = self.join
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
        conjuncts = _conjuncts(statement.where)
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
        return self._update(params, undo_log)

    def _select(self, params: Tuple[Any, ...]) -> ResultSet:
        rows, scanned, used_index = self.scan.matches(params)
        if self.join is not None:
            rows, scanned = self._join(rows, scanned, params)
        # Rows are stored rows (single table) or fresh combined dicts
        # (joins); both are handed out as they are.
        if self.statement.count:
            return ResultSet(self.columns, [{self.columns[0]: len(rows)}], scanned, used_index)
        if self.items:
            columns = self.columns
            items = self.items
            rows = [{name: get(row) for name, get in items} for row in rows]
        else:
            columns = self.star_sorted if rows else self.star_declared
        return ResultSet(columns, rows, scanned, used_index)

    def _join(
        self, rows: List[Dict[str, Any]], scanned: int, params: Tuple[Any, ...]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Nested-loop join with inner index acceleration.

        ``rows`` are the base table's surviving storage rows; they are
        qualified only when an inner row joins them.  Returns the
        combined rows and the running ``scanned``.
        """
        step = self.join
        outer_pairs = self.scan.pairs
        key = step.base_key
        if key is None:
            # The ON clause names no base column: look it up the slow
            # way, on qualified rows, and raise what that raises.
            rows = [{q: row[c] for c, q in outer_pairs} for row in rows]
            outer_pairs = None
        lookup = step.outer_lookup
        table, column, inner_pairs = step.table, step.inner_column, step.pairs
        inner_predicate = self.inner_predicate
        inner_size = len(step.rows)
        joined: List[Dict[str, Any]] = []
        for outer in rows:
            value = outer[key] if key is not None else lookup(outer)
            if step.use_index:
                matches = table.index_lookup(column, value)
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
            self.executor.join_index_lookups += len(rows)
        else:
            self.executor.join_full_scans += len(rows)
        # Apply what is left of WHERE now that the joined columns are
        # visible (the first pass already pruned what it could see).
        residual = self.residual
        if residual is not None:
            joined = [row for row in joined if residual(row, params)]
        return joined, scanned

    # -- mutations ------------------------------------------------------------
    def write_targets(self, params: Tuple[Any, ...]) -> List[Tuple[str, Any]]:
        """The ``(table, key)`` pairs a mutation will touch — used for locking.

        For INSERTs this is the new primary key; for UPDATEs the matching
        rows' keys (a dry run of the scan, counted like one), or a
        whole-table sentinel when that cannot be evaluated.  SELECTs
        return no targets.  Arity is checked first: a statement that
        cannot run must not lock anything.
        """
        if len(params) != self.param_count:
            raise self._arity_error(params)
        if self.kind == "select":
            return []
        name = self.table.name
        if self.kind == "insert":
            for column, slot in self.assignments:
                if column == self.primary_key:
                    return [(name, _value(slot, params))]
            return [(name, ("*",))]
        try:
            rows = self.scan.matches(params)[0]
        except (ExecutionError, EvaluationError):
            return [(name, ("*",))]
        return [(name, row[self.primary_key]) for row in rows]

    def _values(self, params: Tuple[Any, ...]) -> Dict[str, Any]:
        return {
            column: constant if index is None else params[index]
            for column, (index, constant) in self.assignments
        }

    def _insert(self, params: Tuple[Any, ...], undo_log: Optional[list]) -> ResultSet:
        row = self.table.insert(self._values(params))
        if undo_log is not None:
            undo_log.append((self.table.name, "insert", row[self.primary_key]))
        return ResultSet([], [], affected=1, rows_scanned=1)

    def _update(self, params: Tuple[Any, ...], undo_log: Optional[list]) -> ResultSet:
        """Scan for the target rows, then change each."""
        targets, scanned, used_index = self.scan.matches(params)
        table, pk = self.table, self.primary_key
        changes = self._values(params)
        for key in [row[pk] for row in targets]:
            before = table.update(key, changes)
            if undo_log is not None:
                undo_log.append((table.name, "update", before))
        return ResultSet([], [], scanned, used_index, len(targets))


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
        self.join_index_lookups = 0
        self.join_full_scans = 0
        # The reference the access-path rule is checked against: ignore
        # every index and scan.  Read per execution, not at prepare.
        self.force_full_scans = False

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise ExecutionError(f"no such table {name!r}") from None
