"""Row storage: tables with a primary index, hash indexes, ordered indexes.

Every column named in ``schema.indexes`` is backed by **two** index
structures: a hash index (``{value: set-of-primary-keys}``) answering
equality probes in O(1), and a :class:`~repro.rdbms.bptree.BPlusTree`
answering range and prefix probes in key order.  The primary key gets an
ordered index too (equality on the primary key is served by the row dict
itself).

TEXT columns store *casefolded* keys in their ordered index: the only
ordered probe the planner issues against TEXT is the prefix scan backing
case-insensitive ``LIKE 'abc%'`` predicates, and a casefolded tree makes
that scan return exactly the case-insensitively matching rows.  Numeric
columns store raw values, so range probes follow numeric order.

Empty index buckets are pruned on every mutation path (delete, update,
restore): a bucket that loses its last row key is removed from the hash
dict and the tree leaf, so index size tracks the *data*, not the
mutation history — this matters for churny workloads (bids, comments)
and for the statistics layer, which reads ``len(bucket dict)`` as the
distinct-value count.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .bptree import BPlusTree
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
    """In-memory heap of rows keyed by primary key, with hash + ordered indexes.

    Rows are stored as plain dicts.  Mutating operations return enough
    information for the transaction layer to undo them.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[Any, Dict[str, Any]] = {}
        self._indexes: Dict[str, Dict[Any, Set[Any]]] = {
            column: {} for column in schema.indexes
        }
        # Ordered indexes cover the secondary-index columns plus the
        # primary key; TEXT columns are casefolded (see module docstring).
        self._ordered: Dict[str, BPlusTree] = {}
        self._casefolded: Dict[str, bool] = {}
        for column in [schema.primary_key, *schema.indexes]:
            self._ordered[column] = BPlusTree()
            self._casefolded[column] = schema.column(column).type == TEXT

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

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

    def keys(self) -> List[Any]:
        return list(self._rows.keys())

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

    def has_ordered_index(self, column: str) -> bool:
        return column in self._ordered

    def ordered_index_is_casefolded(self, column: str) -> bool:
        """True when the ordered index stores lowercase keys (TEXT columns)."""
        return self._casefolded.get(column, False)

    def _ordered_key(self, column: str, value: Any) -> Any:
        return value.lower() if self._casefolded[column] else value

    def range_lookup(
        self,
        column: str,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        copy: bool = True,
    ) -> List[Dict[str, Any]]:
        """Rows with ``lo <[=] column <[=] hi``, in (value, primary-key) order.

        Bounds of ``None`` are unbounded.  On a casefolded (TEXT) ordered
        index the comparison happens in lowercase key space — the planner
        only issues TEXT probes through :meth:`prefix_lookup`.
        """
        tree = self._ordered_tree(column)
        if lo is not None:
            lo = self._ordered_key(column, lo)
        if hi is not None:
            hi = self._ordered_key(column, hi)
        rows = self._rows
        out: List[Dict[str, Any]] = []
        for _key, bucket in tree.range_items(lo, hi, lo_inclusive, hi_inclusive):
            for key in _stable_sorted(bucket):
                row = rows[key]
                out.append(dict(row) if copy else row)
        return out

    def prefix_lookup(
        self, column: str, prefix: str, copy: bool = True
    ) -> List[Dict[str, Any]]:
        """Rows whose ``column`` starts (case-insensitively) with ``prefix``."""
        tree = self._ordered_tree(column)
        prefix = self._ordered_key(column, prefix)
        rows = self._rows
        out: List[Dict[str, Any]] = []
        for _key, bucket in tree.prefix_items(prefix):
            for key in _stable_sorted(bucket):
                row = rows[key]
                out.append(dict(row) if copy else row)
        return out

    def _ordered_tree(self, column: str) -> BPlusTree:
        try:
            return self._ordered[column]
        except KeyError:
            raise StorageError(f"no ordered index on {self.name}.{column}") from None

    # -- statistics accessors -------------------------------------------------
    def distinct_count(self, column: str) -> Optional[int]:
        """Distinct non-pruned values of an indexed ``column`` (None if unindexed)."""
        if column == self.schema.primary_key:
            return len(self._rows)
        index = self._indexes.get(column)
        if index is None:
            return None
        return len(index)

    def column_min_max(self, column: str) -> Optional[Tuple[Any, Any]]:
        """(min, max) of an ordered-indexed column, in its key space.

        TEXT columns report casefolded bounds.  None when the column has
        no ordered index or the table is empty.
        """
        tree = self._ordered.get(column)
        if tree is None or not tree:
            return None
        return tree.min_key(), tree.max_key()

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
        return dict(row)

    def _index_add(self, row: Dict[str, Any], key: Any) -> None:
        for column, index in self._indexes.items():
            value = row[column]
            bucket = index.get(value)
            if bucket is None:
                bucket = index[value] = set()
            bucket.add(key)
        for column, tree in self._ordered.items():
            value = row[column]
            if value is not None:
                tree.add(self._ordered_key(column, value), key)

    def _index_remove(self, row: Dict[str, Any], key: Any) -> None:
        for column, index in self._indexes.items():
            value = row[column]
            bucket = index.get(value)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[value]
        for column, tree in self._ordered.items():
            value = row[column]
            if value is not None:
                tree.discard(self._ordered_key(column, value), key)

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
        if index is not None:
            bucket = index.get(old_value)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[old_value]
            new_bucket = index.get(new_value)
            if new_bucket is None:
                new_bucket = index[new_value] = set()
            new_bucket.add(key)
        tree = self._ordered.get(column)
        if tree is not None:
            if old_value is not None:
                tree.discard(self._ordered_key(column, old_value), key)
            if new_value is not None:
                tree.add(self._ordered_key(column, new_value), key)

    def delete(self, key: Any) -> Dict[str, Any]:
        """Remove the row at ``key``; returns its final image."""
        if key not in self._rows:
            raise StorageError(f"no row {key!r} in {self.name}")
        row = self._rows.pop(key)
        self._index_remove(row, key)
        return dict(row)

    def restore(self, row: Dict[str, Any]) -> None:
        """Reinstate a previously deleted/overwritten row image (undo path)."""
        key = row[self.schema.primary_key]
        if key in self._rows:
            # Undo of an update: overwrite in place.
            current = self._rows[key]
            for column in set([*self._indexes, *self._ordered]):
                if current[column] != row[column]:
                    self._index_move(column, current[column], row[column], key)
            current.clear()
            current.update(row)
        else:
            self._rows[key] = dict(row)
            self._index_add(self._rows[key], key)

    def truncate(self) -> None:
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        for tree in self._ordered.values():
            tree.clear()

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
        indexes it.  Rows go in in heap order, which is insertion order
        for a table whose indexed columns were never updated: the hash
        buckets and B+-trees are then rebuilt key for key and node for
        node.  Otherwise they hold the same entries in another layout,
        which no lookup can observe (buckets are read sorted, trees in
        key order).
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

    def bulk_load(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows (data-generator path); returns the count."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count
