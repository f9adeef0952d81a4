"""Shard routing: pin statements to shards, merge scatter-gather results.

The router's fast path is *pinning*: a statement whose WHERE clause (or
INSERT values) binds the shard-key column of its sharded table with an
equality executes on exactly one shard.  Everything else degrades
honestly — SELECTs scatter to every shard and merge (including
cross-shard aggregate folding for COUNT/SUM/MIN/MAX), writes broadcast
and pay two-phase commit when a transaction touches several shards.

Tables not partitioned by the policy are *global*: fully copied to every
shard, so reference-data joins stay single-shard.  Reads against only
global tables route to shard 0 (every shard has the same copy); writes
to them broadcast.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from ..compiler import EMPTY_ROW, compile_expression
from ..executor import ResultSet
from ..expressions import And, Comparison, EvaluationError, Expression
from ..sql import (
    Aggregate,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
    parse_cached,
)
from .config import DataTierPolicy

__all__ = ["ClusterRoutingError", "Partitioner", "Route", "route_statement", "merge_results"]


class ClusterRoutingError(Exception):
    """Raised for statements the sharded tier cannot answer correctly."""


class Partitioner:
    """Maps shard-key values to shard indexes (hash or range)."""

    def __init__(self, tier: DataTierPolicy):
        self.tier = tier
        self.count = tier.shard_count

    def shard_of(self, value: Any) -> int:
        if self.count == 1:
            return 0
        if self.tier.strategy == "range":
            # range_splits are ascending upper bounds; values above the
            # last split land in the final shard.
            return bisect_left(list(self.tier.range_splits), value)
        # Hash partitioning: crc32 of the canonical string form, which is
        # stable across processes and Python versions (unlike hash()).
        return zlib.crc32(str(value).encode("utf-8")) % self.count


@dataclass
class Route:
    """Where one statement executes."""

    kind: str  # "single" | "scatter" | "broadcast"
    shard: Optional[int]  # set for kind == "single"
    is_write: bool
    sharded_tables: Tuple[str, ...]


def _conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts (empty for None)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        flat: List[Expression] = []
        for part in expression.parts:
            flat.extend(_conjuncts(part))
        return flat
    return [expression]


def _bare(column: str) -> str:
    """Strip any table/alias qualifier from a column reference."""
    return column.rsplit(".", 1)[-1]


def _bound_shard(
    where: Optional[Expression],
    shard_keys: Tuple[str, ...],
    params: Tuple[Any, ...],
    partitioner: Partitioner,
) -> Optional[int]:
    """The shard pinned by an equality on any listed shard-key column."""
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, Comparison):
            continue
        binding = conjunct.equality_binding()
        if binding is None:
            continue
        column, expr = binding
        if _bare(column) not in shard_keys:
            continue
        try:
            value = compile_expression(expr)(EMPTY_ROW, params)
        except (EvaluationError, IndexError):
            # A value that reads a row, or a parameter the caller did not
            # bind: this conjunct pins nothing, and execution reports it.
            continue
        return partitioner.shard_of(value)
    return None


def route_statement(
    statement: Union[str, Statement],
    params: Tuple[Any, ...],
    tier: DataTierPolicy,
    partitioner: Partitioner,
) -> Route:
    """Classify one statement against the sharding policy."""
    if isinstance(statement, str):
        statement = parse_cached(statement)

    if isinstance(statement, Select):
        tables = statement.tables()
        is_write = False
    else:
        tables = [statement.table]
        is_write = True

    sharded = tuple(t for t in tables if tier.shard_key(t) is not None)
    if not sharded:
        # Global/reference tables only: every shard holds the full copy.
        if is_write:
            return Route("broadcast", None, True, ())
        return Route("single", 0, False, ())

    shard_keys = tuple(tier.shard_key(t) for t in sharded)

    if isinstance(statement, Insert):
        key_column = tier.shard_key(statement.table)
        for column, expr in zip(statement.columns, statement.values):
            if _bare(column) == key_column:
                value = compile_expression(expr)(EMPTY_ROW, params)
                return Route("single", partitioner.shard_of(value), True, sharded)
        raise ClusterRoutingError(
            f"INSERT into sharded table {statement.table!r} does not set its "
            f"shard key {key_column!r}"
        )

    where = statement.where if isinstance(statement, (Select, Update, Delete)) else None
    shard = _bound_shard(where, shard_keys, params, partitioner)
    if shard is not None:
        return Route("single", shard, is_write, sharded)
    if is_write:
        return Route("broadcast", None, True, sharded)
    return Route("scatter", None, False, sharded)


# -- scatter-gather merging ---------------------------------------------------

_MERGEABLE = ("COUNT", "SUM", "MIN", "MAX")


def _merge_aggregates(statement: Select, results: List[ResultSet]) -> ResultSet:
    if statement.group_by is not None:
        raise ClusterRoutingError(
            "cross-shard GROUP BY is not supported; pin the query to one "
            "shard with an equality on the shard key"
        )
    merged_row = {}
    columns: List[str] = []
    for item in statement.items:
        if not isinstance(item, Aggregate):
            raise ClusterRoutingError(
                "cross-shard aggregates cannot mix plain columns without GROUP BY"
            )
        if item.function not in _MERGEABLE:
            raise ClusterRoutingError(
                f"cross-shard {item.function} is not mergeable; pin the query "
                f"to one shard with an equality on the shard key"
            )
        name = item.output_name
        columns.append(name)
        values = [r.rows[0][name] for r in results if r.rows]
        values = [v for v in values if v is not None]
        if item.function in ("COUNT", "SUM"):
            merged_row[name] = sum(values) if (values or item.function == "COUNT") else None
            if item.function == "COUNT" and not values:
                merged_row[name] = 0
        elif item.function == "MIN":
            merged_row[name] = min(values) if values else None
        else:  # MAX
            merged_row[name] = max(values) if values else None
    return ResultSet(
        columns=columns,
        rows=[merged_row],
        rows_scanned=sum(r.rows_scanned for r in results),
    )


def merge_results(statement: Union[str, Statement], results: List[ResultSet]) -> ResultSet:
    """Fold per-shard result sets into one (the gather half of scatter-gather)."""
    if isinstance(statement, str):
        statement = parse_cached(statement)
    if not isinstance(statement, Select):
        # Broadcast write: total rows affected across shards.
        return ResultSet(
            columns=results[0].columns if results else [],
            rows=[],
            rows_scanned=sum(r.rows_scanned for r in results),
            affected=sum(r.affected for r in results),
        )
    if statement.is_aggregate:
        return _merge_aggregates(statement, results)
    rows: List[dict] = []
    for result in results:
        rows.extend(result.rows)
    order = statement.order_by
    if order is not None:
        column = order.column
        # Match the executor's ordering; shard-local sorts are stable, so
        # re-sorting the concatenation reproduces a single-instance run
        # up to ties across shards.
        rows.sort(key=lambda row: row.get(column, row.get(_bare(column))),
                  reverse=order.descending)
    if statement.limit is not None:
        rows = rows[: statement.limit]
    return ResultSet(
        columns=results[0].columns if results else [],
        rows=rows,
        rows_scanned=sum(r.rows_scanned for r in results),
    )
