"""Per-table statistics feeding the cost-based planner.

Mirrors SimpleDB's ``StatInfo``: the planner reasons in two currencies,
``blocks_accessed`` (how many disk blocks an access path would touch in
a real engine) and ``records_output`` (how many rows it would produce).
Rather than maintaining counters incrementally, :class:`TableStats` is a
cheap *live view* over a :class:`~repro.rdbms.storage.Table` — every
number it reports is O(1) off the storage layer's own structures:

* ``row_count`` is the heap size;
* distinct-value counts read ``len()`` of the hash-index bucket dict,
  which is exact because the storage layer prunes empty buckets;
* min/max per ordered-indexed column come from the B+-tree endpoints.

Selectivity heuristics are the classic ones: ``1/distinct`` for
equality, min/max interpolation for numeric ranges, and fixed fractions
when nothing better is known.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .storage import Table

__all__ = [
    "TableStats",
    "blocks_for",
    "equality_records",
    "BLOCK_SIZE",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_PREFIX_SELECTIVITY",
]

BLOCK_SIZE = 4096

# Fallback selectivities when min/max interpolation does not apply.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_PREFIX_SELECTIVITY = 1.0 / 10.0
# Distinct-count guess for unindexed columns (SimpleDB's rule of thumb).
DEFAULT_DISTINCT_FRACTION = 3


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def blocks_for(records: int, row_size: int) -> int:
    """Blocks touched to read ``records`` sequential rows of ``row_size`` bytes."""
    if records <= 0:
        return 0
    return _ceil_div(records * row_size, BLOCK_SIZE)


def equality_records(row_count: int, distinct: int) -> int:
    """Estimated rows matching ``column = constant``: ``ceil(rows / distinct)``.

    Never more than ``row_count``, which is why a lone equality
    candidate needs no costing against the full scan.
    """
    if row_count == 0:
        return 0
    return _ceil_div(row_count, max(1, distinct))


class TableStats:
    """A snapshot-free statistics view over one table."""

    __slots__ = ("table", "row_count", "row_size")

    def __init__(self, table: Table):
        self.table = table
        self.row_count = len(table)
        self.row_size = max(1, table.schema.estimated_row_size())

    # -- blocks ---------------------------------------------------------------
    def blocks_for(self, records: int) -> int:
        """Blocks touched to read ``records`` sequential rows."""
        return blocks_for(records, self.row_size)

    def table_blocks(self) -> int:
        """Blocks a full scan of the heap touches."""
        return self.blocks_for(self.row_count)

    # -- records --------------------------------------------------------------
    def distinct_values(self, column: str) -> int:
        """Distinct values of ``column`` (exact for indexed columns)."""
        exact = self.table.distinct_count(column)
        if exact is not None:
            return max(1, exact)
        return max(1, self.row_count // DEFAULT_DISTINCT_FRACTION)

    def equality_records(self, column: str) -> int:
        """Estimated rows matching ``column = constant``."""
        return equality_records(self.row_count, self.distinct_values(column))

    def range_records(
        self,
        column: str,
        lo: Optional[Any],
        hi: Optional[Any],
    ) -> int:
        """Estimated rows matching a range predicate on ``column``.

        Interpolates against the column's min/max when both the bounds
        and the endpoints are numeric; otherwise assumes the default
        range selectivity.  Bound inclusivity is ignored — it moves the
        estimate by less than a row.
        """
        if self.row_count == 0:
            return 0
        selectivity = self._range_selectivity(column, lo, hi)
        return min(self.row_count, _ceil_div_float(self.row_count * selectivity))

    def prefix_records(self, column: str) -> int:
        """Estimated rows matching ``column LIKE 'prefix%'``."""
        if self.row_count == 0:
            return 0
        return min(
            self.row_count,
            _ceil_div_float(self.row_count * DEFAULT_PREFIX_SELECTIVITY),
        )

    def min_max(self, column: str) -> Optional[Tuple[Any, Any]]:
        return self.table.column_min_max(column)

    def _range_selectivity(
        self, column: str, lo: Optional[Any], hi: Optional[Any]
    ) -> float:
        bounds = self.table.column_min_max(column)
        if bounds is None:
            return DEFAULT_RANGE_SELECTIVITY
        low, high = bounds
        if not _is_numeric(low) or not _is_numeric(high):
            return DEFAULT_RANGE_SELECTIVITY
        if lo is not None and not _is_numeric(lo):
            return DEFAULT_RANGE_SELECTIVITY
        if hi is not None and not _is_numeric(hi):
            return DEFAULT_RANGE_SELECTIVITY
        span = high - low
        if span <= 0:
            # Single-valued column: the predicate either covers that
            # value or it does not.
            value = low
            covered = (lo is None or value >= lo) and (hi is None or value <= hi)
            return 1.0 if covered else 0.0
        effective_lo = low if lo is None else max(low, lo)
        effective_hi = high if hi is None else min(high, hi)
        if effective_hi < effective_lo:
            return 0.0
        return min(1.0, max(0.0, (effective_hi - effective_lo) / span))


def _ceil_div_float(value: float) -> int:
    whole = int(value)
    return whole if value == whole else whole + 1


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
