"""Row storage: tables with a primary key, hash indexes and a key order.

Rows live in a dict keyed by primary key, which answers equality on the
primary key.  Every column named in ``schema.indexes`` gets a hash index
(``{value: set-of-primary-keys}``) answering equality probes in O(1).
A table whose primary key is not TEXT also keeps its primary keys in a
sorted list, maintained with :mod:`bisect`, which answers the one range
probe the dialect has: ``pk BETWEEN low AND high``, in key order.

Empty index buckets are pruned on every mutation path (delete, update,
restore): a bucket that loses its last row key is removed from the hash
dict, so index size tracks the *data*, not the mutation history — this
matters for churny workloads (bids, comments).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .schema import TableSchema
from .types import TEXT

__all__ = ["Table", "StorageError"]


class StorageError(Exception):
    """Raised on constraint violations (duplicate key, missing row, ...)."""


def _stable_sorted(keys: Iterable[Any]) -> List[Any]:
    try:
        return sorted(keys)
    except TypeError:  # mixed key types: fall back to a stable order
        return sorted(keys, key=repr)


class Table:
    """In-memory heap of rows keyed by primary key, with hash indexes.

    Rows are stored as plain dicts.  Mutating operations return enough
    information for the transaction layer to undo them.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[Any, Dict[str, Any]] = {}
        self._indexes: Dict[str, Dict[Any, Set[Any]]] = {
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

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        """The row with primary key ``key`` (a copy), or None."""
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def scan(self, copy: bool = True) -> Iterable[Dict[str, Any]]:
        """Every row (heap order = insertion order).

        ``copy=False`` is a sized *live view* of the storage dicts: it
        follows later inserts and deletes, so a prepared statement binds
        it once and reads ``len()`` and the rows from it on every
        execution, and rows a predicate rejects are never copied.  Live
        rows must only be mutated through the undo-logged mutation API
        (:meth:`update` / :meth:`delete`).
        """
        if copy:
            return (dict(row) for row in self._rows.values())
        return self._rows.values()

    def index_lookup(
        self, column: str, value: Any, copy: bool = True
    ) -> List[Dict[str, Any]]:
        """Rows whose indexed ``column`` equals ``value``.

        Returns copies by default; ``copy=False`` returns the live
        storage dicts (see :meth:`scan`).  Lookups never mutate the
        index: probing a value with no entries must not insert one.
        """
        if column == self.schema.primary_key:
            row = self._rows.get(value)
            if row is None:
                return []
            return [dict(row)] if copy else [row]
        if column not in self._indexes:
            raise StorageError(f"no index on {self.name}.{column}")
        keys = self._indexes[column].get(value)
        if not keys:
            return []
        ordered = _stable_sorted(keys)
        rows = self._rows
        if copy:
            return [dict(rows[key]) for key in ordered]
        return [rows[key] for key in ordered]

    def has_index(self, column: str) -> bool:
        return column == self.schema.primary_key or column in self._indexes

    def range_lookup(
        self, low: Any = None, high: Any = None, copy: bool = True
    ) -> List[Dict[str, Any]]:
        """Rows with ``low <= pk <= high``, in primary-key order.

        A bound of ``None`` is unbounded.  Raises :class:`StorageError`
        on a table whose primary key is TEXT.
        """
        keys = self.key_order
        if keys is None:
            raise StorageError(f"no key order on {self.name}")
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_right(keys, high)
        rows = self._rows
        if copy:
            return [dict(rows[key]) for key in keys[start:stop]]
        return [rows[key] for key in keys[start:stop]]

    # -- mutation -----------------------------------------------------------
    def insert(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Insert; returns the stored row.  Raises on duplicate key."""
        row = self.schema.normalize_row(values)
        key = row[self.schema.primary_key]
        if key is None:
            raise StorageError(f"NULL primary key for {self.name}")
        if key in self._rows:
            raise StorageError(f"duplicate primary key {key!r} in {self.name}")
        self._rows[key] = row
        self._index_add(row, key)
        if self.key_order is not None:
            insort(self.key_order, key)
        return dict(row)

    def _index_add(self, row: Dict[str, Any], key: Any) -> None:
        for column, index in self._indexes.items():
            value = row[column]
            bucket = index.get(value)
            if bucket is None:
                bucket = index[value] = set()
            bucket.add(key)

    def update(self, key: Any, changes: Dict[str, Any]) -> Dict[str, Any]:
        """Apply ``changes`` to the row at ``key``; returns the prior image."""
        if key not in self._rows:
            raise StorageError(f"no row {key!r} in {self.name}")
        row = self._rows[key]
        before = dict(row)
        for column_name, value in changes.items():
            column = self.schema.column(column_name)
            if column_name == self.schema.primary_key and column.coerce(value) != key:
                raise StorageError("primary key update is not supported")
            new_value = column.coerce(value)
            if new_value != row[column_name]:
                self._index_move(column_name, row[column_name], new_value, key)
            row[column_name] = new_value
        return before

    def _index_move(self, column: str, old_value: Any, new_value: Any, key: Any) -> None:
        """Re-home ``key`` after a value change on one (possibly indexed) column."""
        index = self._indexes.get(column)
        if index is None:
            return
        bucket = index.get(old_value)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del index[old_value]
        new_bucket = index.get(new_value)
        if new_bucket is None:
            new_bucket = index[new_value] = set()
        new_bucket.add(key)

    def delete(self, key: Any) -> Dict[str, Any]:
        """Remove the row at ``key`` (the undo of an INSERT); returns its image."""
        if key not in self._rows:
            raise StorageError(f"no row {key!r} in {self.name}")
        row = self._rows.pop(key)
        for column, index in self._indexes.items():
            bucket = index[row[column]]
            bucket.discard(key)
            if not bucket:
                del index[row[column]]
        if self.key_order is not None:
            del self.key_order[bisect_left(self.key_order, key)]
        return dict(row)

    def restore(self, row: Dict[str, Any]) -> None:
        """Overwrite a row with an earlier image of it (the undo of an UPDATE)."""
        key = row[self.schema.primary_key]
        current = self._rows[key]
        for column in self._indexes:
            if current[column] != row[column]:
                self._index_move(column, current[column], row[column], key)
        current.clear()
        current.update(row)

    # -- images -----------------------------------------------------------
    def image(self) -> Tuple[Tuple[Any, ...], ...]:
        """Every row's values in column order, in heap order.

        Rows are stored in column order (:meth:`TableSchema.normalize_row`
        builds them so, and updates keep the key order), so a row's
        values are its ``values()``.  Mapped in C: no Python call per row.
        """
        return tuple(map(tuple, map(dict.values, self._rows.values())))

    def load_image(self, rows: Iterable[Tuple[Any, ...]]) -> None:
        """Fill an empty table with the rows of an :meth:`image`.

        The values were validated when they were first stored, so they
        are not coerced again; each row is indexed as :meth:`insert`
        indexes it, and the key order is sorted once at the end.  Rows go
        in in heap order, which is insertion order for a table whose
        indexed columns were never updated: the hash buckets are then
        rebuilt key for key.  Otherwise they hold the same entries in
        another layout, which no lookup can observe (buckets are read
        sorted).
        """
        if self._rows:
            raise StorageError(f"load_image needs an empty table, {self.name} has rows")
        names = self.schema.column_names()
        key_at = names.index(self.schema.primary_key)
        stored = self._rows
        for values in rows:
            key = values[key_at]
            row = stored[key] = dict(zip(names, values))
            self._index_add(row, key)
        if self.key_order is not None:
            self.key_order = sorted(stored)

    def bulk_load(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows (data-generator path); returns the count."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count
