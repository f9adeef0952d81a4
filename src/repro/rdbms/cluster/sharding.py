"""Shard routing: pin statements to shards, merge scatter-gather results.

The router's fast path is *pinning*: a statement whose WHERE clause (or
INSERT values) binds the shard-key column of its sharded table with an
equality executes on exactly one shard.  Everything else degrades
honestly — SELECTs scatter to every shard and merge (concatenating rows,
summing ``COUNT(*)``), writes broadcast and pay two-phase commit when a
transaction touches several shards.

Tables not partitioned by the policy are *global*: fully copied to every
shard, so reference-data joins stay single-shard.  Reads against only
global tables route to shard 0 (every shard has the same copy); writes
to them broadcast.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from ..compiler import value_slot
from ..executor import ResultSet
from ..expressions import And, Equals, Expression
from ..sql import Insert, Select, Statement, parse_cached
from .config import DataTierPolicy

__all__ = ["ClusterRoutingError", "Partitioner", "Route", "route_statement", "merge_results"]


class ClusterRoutingError(Exception):
    """Raised for statements the sharded tier cannot answer correctly."""


class Partitioner:
    """Maps shard-key values to shard indexes by hash."""

    def __init__(self, tier: DataTierPolicy):
        self.count = tier.shard_count

    def shard_of(self, value: Any) -> int:
        if self.count == 1:
            return 0
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


def _bare(column: str) -> str:
    """Strip any table/alias qualifier from a column reference."""
    return column.rsplit(".", 1)[-1]


def _value(value: Expression, params: Tuple[Any, ...]) -> Any:
    index, constant = value_slot(value)
    return constant if index is None else params[index]


def _bound_shard(
    where: Optional[Expression],
    shard_keys: Tuple[str, ...],
    params: Tuple[Any, ...],
    partitioner: Partitioner,
) -> Optional[int]:
    """The shard pinned by an equality on any listed shard-key column."""
    if where is None:
        return None
    for conjunct in where.parts if type(where) is And else (where,):
        if type(conjunct) is not Equals or _bare(conjunct.column.name) not in shard_keys:
            continue
        try:
            value = _value(conjunct.value, params)
        except IndexError:
            # A parameter the caller did not bind: this conjunct pins
            # nothing, and execution reports it.
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
                value = _value(expr, params)
                return Route("single", partitioner.shard_of(value), True, sharded)
        raise ClusterRoutingError(
            f"INSERT into sharded table {statement.table!r} does not set its "
            f"shard key {key_column!r}"
        )

    shard = _bound_shard(statement.where, shard_keys, params, partitioner)
    if shard is not None:
        return Route("single", shard, is_write, sharded)
    if is_write:
        return Route("broadcast", None, True, sharded)
    return Route("scatter", None, False, sharded)


# -- scatter-gather merging ---------------------------------------------------


def merge_results(statement: Union[str, Statement], results: List[ResultSet]) -> ResultSet:
    """Fold per-shard result sets into one (the gather half of scatter-gather)."""
    if isinstance(statement, str):
        statement = parse_cached(statement)
    scanned = sum(r.rows_scanned for r in results)
    if not isinstance(statement, Select):
        # Broadcast write: total rows affected across shards.
        return ResultSet(
            columns=results[0].columns if results else [],
            rows=[],
            rows_scanned=scanned,
            affected=sum(r.affected for r in results),
        )
    if statement.count:
        name = statement.count
        total = sum(r.rows[0][name] for r in results)
        return ResultSet(columns=[name], rows=[{name: total}], rows_scanned=scanned)
    rows: List[dict] = []
    for result in results:
        rows.extend(result.rows)
    return ResultSet(
        columns=results[0].columns if results else [],
        rows=rows,
        rows_scanned=scanned,
    )
