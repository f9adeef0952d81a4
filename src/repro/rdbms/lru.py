"""A tiny bounded LRU map for the engine's memo caches.

A database keeps the prepared statement of every SQL text it has seen,
and the parser keeps every AST; the middleware's query and method caches
keep results.  A cache that only grows pins every statement ever seen
for the life of the process, and one that stops admitting when full
silently stops caching.  This LRU evicts the least-recently-used entry
once ``capacity`` is exceeded, so a long multi-cell process neither
leaks nor goes cold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional, Tuple

__all__ = ["LruCache"]

_MISSING = object()


class LruCache:
    """Bounded mapping with least-recently-used eviction."""

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The value for ``key`` (refreshing its recency), or None."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return None
        self._data.move_to_end(key)
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The value for ``key`` without refreshing its recency."""
        value = self._data.get(key, _MISSING)
        return None if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> Optional[Tuple[Hashable, Any]]:
        """Insert/refresh ``key``; returns the evicted ``(key, value)``
        pair when the insert pushed an older entry out, else None.

        Callers that maintain secondary indexes over the cached keys (the
        consistency layer's table→entry maps) use the returned pair to
        keep those indexes coherent with evictions.
        """
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            return data.popitem(last=False)
        return None

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove ``key``, returning its value (None when absent)."""
        value = self._data.pop(key, _MISSING)
        return None if value is _MISSING else value

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> Iterator[Hashable]:
        return iter(self._data.keys())
