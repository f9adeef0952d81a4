"""A reference executor for the dialect — what ``test_prepared_oracle.py``
compares prepared statements against.

It re-reads the statement on every execution and evaluates conditions
with the tree walker (:mod:`tests.rdbms.tree_walker`), never with the
compiled closures; only storage (:class:`repro.rdbms.storage.Table`) is
shared with the program.  It states the executor's contract in the
plainest form:

* the access path of a scanned table is the leftmost ``col = val``
  conjunct on an indexed column of it, else the leftmost BETWEEN on a
  primary key that is not TEXT with a non-NULL bound, else a full scan;
  an index path scans ``max(1, candidates)`` rows, a full scan the table;
* a join filters base rows with the leading run of conjuncts that read
  only base columns, the probed inner rows with the run of inner-only
  conjuncts right after it, and the joined rows with the rest; when a
  leading conjunct names a column both tables have, the joined rows are
  filtered with the whole WHERE;
* the scan counters move when the rows are fetched, the join counters
  when the probes are done.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.rdbms.expressions import And, Between, ColumnRef, Equals, Expression, Or, Parameter
from repro.rdbms.sql import Insert, Select, Statement, Update
from repro.rdbms.storage import Table
from repro.rdbms.types import TEXT

from .tree_walker import evaluate, substitute

__all__ = ["ResultSet", "ExecutionError", "Executor"]


class ExecutionError(Exception):
    """Raised when a statement cannot be executed (same text as the program's)."""


class ResultSet:
    def __init__(self, columns, rows, rows_scanned=0, used_index=None, affected=0):
        self.columns = columns
        self.rows = rows
        self.rows_scanned = rows_scanned
        self.used_index = used_index
        self.affected = affected


def _conjuncts(where: Optional[Expression]) -> List[Expression]:
    if where is None:
        return []
    return list(where.parts) if isinstance(where, And) else [where]


def _columns(condition: Expression) -> List[str]:
    """Every column name a condition reads."""
    if isinstance(condition, (And, Or)):
        return [name for part in condition.parts for name in _columns(part)]
    return [condition.column.name]


def _value(value: Expression, params: Tuple[Any, ...]) -> Any:
    return params[value.index] if isinstance(value, Parameter) else value.value


def _owner(name: str, sides: Dict[str, Table]) -> Optional[str]:
    """The one binding of ``sides`` a column name belongs to, or None."""
    owner, dot, bare = name.partition(".")
    if dot:
        table = sides.get(owner)
        return owner if table is not None and bare in table.schema.column_map else None
    owners = [b for b, table in sides.items() if name in table.schema.column_map]
    return owners[0] if len(owners) == 1 else None


def _on_table(name: str, table: Table, binding: Optional[str]) -> Optional[str]:
    """The column of ``table`` a name reads, when it reads one of them."""
    owner, dot, bare = name.partition(".")
    if not dot:
        bare = name
    elif binding is not None and owner != binding:
        return None
    return bare if bare in table.schema.column_map else None


class Executor:
    def __init__(self, tables: Dict[str, Table]):
        self.tables = tables
        self.index_scans = 0
        self.full_scans = 0
        self.range_scans = 0
        self.join_index_lookups = 0
        self.join_full_scans = 0
        self.force_full_scans = False

    def _table(self, name: str) -> Table:
        if name not in self.tables:
            raise ExecutionError(f"no such table {name!r}")
        return self.tables[name]

    def execute(self, statement: Statement, params: Tuple[Any, ...] = ()) -> ResultSet:
        if isinstance(statement, Select):
            count = statement.where.parameters() if statement.where is not None else 0
        elif isinstance(statement, Insert):
            count = sum(value.parameters() for value in statement.values)
        else:
            count = statement.where.parameters() + sum(
                value.parameters() for _column, value in statement.assignments
            )
        if count != len(params):
            raise ExecutionError(f"statement takes {count} parameters, got {len(params)}")
        if isinstance(statement, Insert):
            table = self._table(statement.table)
            table.insert({c: _value(v, params) for c, v in zip(statement.columns, statement.values)})
            return ResultSet([], [], rows_scanned=1, affected=1)
        if isinstance(statement, Update):
            return self._update(statement, params)
        return self._select(statement, params)

    # -- scans --------------------------------------------------------------
    def _fetch(self, table, where, binding, params):
        """Candidate rows of the access path, rows scanned, index used."""
        if not self.force_full_scans:
            for conjunct in _conjuncts(where):
                if isinstance(conjunct, Equals):
                    column = _on_table(conjunct.column.name, table, binding)
                    if column is not None and table.has_index(column):
                        rows = table.index_lookup(column, _value(conjunct.value, params))
                        self.index_scans += 1
                        return rows, max(1, len(rows)), f"{table.name}.{column}"
            primary_key = table.schema.primary_key
            for conjunct in _conjuncts(where):
                if (
                    isinstance(conjunct, Between)
                    and table.schema.column(primary_key).type != TEXT
                    and _on_table(conjunct.column.name, table, binding) == primary_key
                ):
                    low, high = _value(conjunct.low, params), _value(conjunct.high, params)
                    if low is None and high is None:
                        break
                    keys = sorted(
                        key for key in (row[primary_key] for row in table.scan())
                        if (low is None or low <= key) and (high is None or key <= high)
                    )
                    rows = [table.index_lookup(primary_key, key)[0] for key in keys]
                    self.index_scans += 1
                    self.range_scans += 1
                    return rows, max(1, len(rows)), f"{table.name}.{primary_key}"
        self.full_scans += 1
        return list(table.scan()), len(table), None

    def _update(self, statement: Update, params) -> ResultSet:
        table = self._table(statement.table)
        condition = substitute(statement.where, params)
        candidates, scanned, used_index = self._fetch(table, statement.where, None, params)
        targets = [row for row in candidates if evaluate(condition, row)]
        changes = {column: _value(value, params) for column, value in statement.assignments}
        for key in [row[table.schema.primary_key] for row in targets]:
            table.update(key, changes)
        return ResultSet([], [], scanned, used_index, len(targets))

    # -- SELECT -------------------------------------------------------------
    def _select(self, statement: Select, params) -> ResultSet:
        base = self._table(statement.table.name)
        join = statement.join
        inner = self._table(join.table.name) if join is not None else None
        condition = substitute(statement.where, params)
        conjuncts = _conjuncts(condition)
        if join is None:
            candidates, scanned, used_index = self._fetch(base, statement.where, None, params)
            rows = [row for row in candidates if condition is None or evaluate(condition, row)]
            declared = base.schema.column_names()
        else:
            rows, scanned, used_index = self._join(statement, base, inner, conjuncts, params)
            declared = [
                f"{ref.binding}.{c}"
                for ref, table in ((statement.table, base), (join.table, inner))
                for c in table.schema.column_names()
            ]
        if statement.count:
            return ResultSet([statement.count], [{statement.count: len(rows)}], scanned, used_index)
        if statement.columns:
            rows = [
                {name: evaluate(ColumnRef(name), row) for name in statement.columns}
                for row in rows
            ]
            return ResultSet(list(statement.columns), rows, scanned, used_index)
        columns = sorted(set(declared)) if rows else declared
        return ResultSet(columns, [dict(row) for row in rows], scanned, used_index)

    def _join(self, statement, base, inner, conjuncts, params):
        base_binding, inner_binding = statement.table.binding, statement.join.table.binding
        sides = {base_binding: base, inner_binding: inner}
        # The leading run that reads the base table only.
        lead = 0
        while lead < len(conjuncts) and all(
            _on_table(name, base, base_binding) is not None for name in _columns(conjuncts[lead])
        ):
            lead += 1
        candidates, scanned, used_index = self._fetch(
            base, statement.where, base_binding, params
        )
        rows = [row for row in candidates if all(evaluate(c, row) for c in conjuncts[:lead])]
        # Which ON side is the inner column.
        left, right = statement.join.left_column, statement.join.right_column
        left_owner, dot, left_bare = left.partition(".")
        if (dot and left_owner == inner_binding) or (
            not dot and left in inner.schema.column_map
        ):
            inner_column, outer_column = left, right
        else:
            inner_column, outer_column = right, left
        inner_column = inner_column.rpartition(".")[2]
        # The inner-only run right after the lead, when the lead is
        # unambiguous on the joined rows.
        start = end = 0
        if all(_owner(n, sides) == base_binding for c in conjuncts[:lead] for n in _columns(c)):
            start = end = lead
            while end < len(conjuncts) and all(
                _owner(n, sides) == inner_binding for n in _columns(conjuncts[end])
            ):
                end += 1
        on_inner, rest = conjuncts[start:end], conjuncts[end:]
        outer_key = _on_table(outer_column, base, base_binding)

        def qualified(binding, table, row):
            return {f"{binding}.{c}": row[c] for c in table.schema.column_names()}

        if outer_key is None:
            rows = [qualified(base_binding, base, row) for row in rows]
        use_index = inner.has_index(inner_column)
        joined = []
        for outer in rows:
            if outer_key is None:
                value = evaluate(ColumnRef(outer_column), outer)
            else:
                value = outer[outer_key]
            if use_index:
                matches = inner.index_lookup(inner_column, value)
                scanned += max(1, len(matches))
            else:
                matches = [r for r in inner.scan() if r.get(inner_column) == value]
                scanned += len(inner)
            for match in matches:
                if all(evaluate(c, match) for c in on_inner):
                    if outer_key is None:
                        combined = dict(outer)
                    else:
                        combined = qualified(base_binding, base, outer)
                    combined.update(qualified(inner_binding, inner, match))
                    joined.append(combined)
        if use_index:
            self.join_index_lookups += len(rows)
        else:
            self.join_full_scans += len(rows)
        if rest:
            rest_condition = rest[0] if len(rest) == 1 else And(tuple(rest))
            joined = [row for row in joined if evaluate(rest_condition, row)]
        return joined, scanned, used_index

