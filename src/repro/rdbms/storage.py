"""Row storage: tables with a primary key, hash indexes and a key order.

Rows live in a dict keyed by primary key, which answers equality on the
primary key.  Every column named in ``schema.indexes`` gets a hash index,
``{value: bucket}``, whose bucket is the ascending list of the primary
keys holding that value, kept sorted with :mod:`bisect`: an equality
probe is one dict lookup and hands out its rows in key order without
sorting.  A table whose primary key is not TEXT also keeps its primary
keys in a sorted list, which answers the one range probe the dialect
has: ``pk BETWEEN low AND high``, in key order.

Stored rows are values.  No row is changed in place: an update builds a
new dict and swaps it in, and the old one is the undo image that
:meth:`Table.restore` swaps back.  So every read hands out the stored
dicts themselves, never copies — a scan, a lookup, a ``SELECT *``
result, an edge replica entry and a dataset image may all hold one row
object, and each keeps the value it had when it was handed out.  A
caller that needs a snapshot of a scan takes ``list(...)`` of it.

Empty index buckets are pruned on every mutation path (delete, update,
restore): a bucket that loses its last row key is removed from the hash
dict, so index size tracks the *data*, not the mutation history — this
matters for churny workloads (bids, comments).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .schema import TableSchema
from .types import TEXT

__all__ = ["Table", "StorageError"]

Row = Dict[str, Any]


class StorageError(Exception):
    """Raised on constraint violations (duplicate key, missing row, ...)."""


def _add_key(keys: List[Any], key: Any) -> None:
    """Put ``key`` in its place in the ascending list ``keys``.

    Keys mostly arrive ascending (generators and apps number rows from
    counters), so a key that sorts last is appended without a bisection.
    """
    if not keys or keys[-1] < key:
        keys.append(key)
    else:
        insort(keys, key)


class Table:
    """In-memory heap of rows keyed by primary key, with hash indexes.

    Rows are stored as plain dicts and never mutated once stored.
    Mutating operations return enough information for the transaction
    layer to undo them.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[Any, Row] = {}
        self._indexes: Dict[str, Dict[Any, List[Any]]] = {
            column: {} for column in schema.indexes
        }
        # The primary keys in ascending order; None for a TEXT key, which
        # no range probe may use.
        ordered = schema.column(schema.primary_key).type != TEXT
        self.key_order: Optional[List[Any]] = [] if ordered else None

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def name(self) -> str:
        return self.schema.name

    def get(self, key: Any) -> Optional[Row]:
        """The row with primary key ``key``, or None."""
        return self._rows.get(key)

    def scan(self) -> Iterable[Row]:
        """Every row (heap order = insertion order), as a sized live view.

        The view follows later inserts and deletes, so a prepared
        statement binds it once and reads ``len()`` and the rows from it
        on every execution.
        """
        return self._rows.values()

    def index_lookup(self, column: str, value: Any) -> List[Row]:
        """Rows whose indexed ``column`` equals ``value``, in key order.

        Lookups never mutate the index: probing a value with no entries
        must not insert one.
        """
        if column == self.schema.primary_key:
            row = self._rows.get(value)
            return [] if row is None else [row]
        if column not in self._indexes:
            raise StorageError(f"no index on {self.name}.{column}")
        keys = self._indexes[column].get(value)
        if not keys:
            return []
        return list(map(self._rows.__getitem__, keys))

    def has_index(self, column: str) -> bool:
        return column == self.schema.primary_key or column in self._indexes

    def range_lookup(self, low: Any = None, high: Any = None) -> List[Row]:
        """Rows with ``low <= pk <= high``, in primary-key order.

        A bound of ``None`` is unbounded.  Raises :class:`StorageError`
        on a table whose primary key is TEXT.
        """
        keys = self.key_order
        if keys is None:
            raise StorageError(f"no key order on {self.name}")
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_right(keys, high)
        return list(map(self._rows.__getitem__, keys[start:stop]))

    # -- mutation -----------------------------------------------------------
    def insert(self, values: Dict[str, Any]) -> Row:
        """Insert; returns the stored row.  Raises on duplicate key."""
        row = self.schema.normalize_row(values)
        key = row[self.schema.primary_key]
        if key is None:
            raise StorageError(f"NULL primary key for {self.name}")
        if key in self._rows:
            raise StorageError(f"duplicate primary key {key!r} in {self.name}")
        self._rows[key] = row
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is None:
                index[row[column]] = [key]
            else:
                _add_key(bucket, key)
        if self.key_order is not None:
            _add_key(self.key_order, key)
        return row

    def update(self, key: Any, changes: Dict[str, Any]) -> Row:
        """Store a new row for ``key`` with ``changes`` applied.

        Returns the prior row, which is the undo image: it is no longer
        stored, and nothing changes it.  Every change is checked before
        the row or any index moves.
        """
        row = self._rows.get(key)
        if row is None:
            raise StorageError(f"no row {key!r} in {self.name}")
        new = dict(row)
        for column_name, value in changes.items():
            new_value = self.schema.column(column_name).coerce(value)
            if column_name == self.schema.primary_key and new_value != key:
                raise StorageError("primary key update is not supported")
            new[column_name] = new_value
        self._swap(key, row, new)
        return row

    def restore(self, row: Row) -> None:
        """Store an earlier row for its key again (the undo of an UPDATE)."""
        key = row[self.schema.primary_key]
        self._swap(key, self._rows[key], row)

    def _swap(self, key: Any, old: Row, new: Row) -> None:
        """Store ``new`` in ``old``'s place, re-homing ``key`` in every
        index whose column the two rows disagree on."""
        for column, index in self._indexes.items():
            old_value, new_value = old[column], new[column]
            if old_value == new_value:
                continue
            bucket = index[old_value]
            if len(bucket) == 1:
                del index[old_value]
            else:
                del bucket[bisect_left(bucket, key)]
            bucket = index.get(new_value)
            if bucket is None:
                index[new_value] = [key]
            else:
                _add_key(bucket, key)
        self._rows[key] = new

    def delete(self, key: Any) -> Row:
        """Remove the row at ``key`` (the undo of an INSERT); returns it."""
        row = self._rows.pop(key, None)
        if row is None:
            raise StorageError(f"no row {key!r} in {self.name}")
        for column, index in self._indexes.items():
            bucket = index[row[column]]
            if len(bucket) == 1:
                del index[row[column]]
            else:
                del bucket[bisect_left(bucket, key)]
        if self.key_order is not None:
            del self.key_order[bisect_left(self.key_order, key)]
        return row

    # -- images -----------------------------------------------------------
    def image(self) -> Tuple[Row, ...]:
        """Every stored row, in heap order.

        The rows are the stored dicts themselves: no write changes them,
        so the image keeps this moment's table while the table moves on.
        """
        return tuple(self._rows.values())

    def load_image(self, rows: Iterable[Row]) -> None:
        """Fill an empty table with the rows of an :meth:`image`.

        The rows are shared, not copied, and were validated when they
        were first stored, so they are not coerced again.  Each is
        indexed in heap order and every bucket and the key order are
        sorted once at the end, so the indexes equal those of the
        imaged table, layout included when its indexed columns were
        never updated (the dict of an index then meets its values in
        the same order).
        """
        if self._rows:
            raise StorageError(f"load_image needs an empty table, {self.name} has rows")
        primary_key = self.schema.primary_key
        stored = self._rows
        for row in rows:
            stored[row[primary_key]] = row
        for column, index in self._indexes.items():
            for key, row in stored.items():
                bucket = index.get(row[column])
                if bucket is None:
                    index[row[column]] = [key]
                else:
                    bucket.append(key)
            for bucket in index.values():
                bucket.sort()
        if self.key_order is not None:
            self.key_order = sorted(stored)

    def bulk_load(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows (data-generator path); returns the count."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count
