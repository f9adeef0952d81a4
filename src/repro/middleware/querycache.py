"""Edge-side caching of aggregate query results (§4.4).

Entity beans map rows; aggregate queries (category listings, bid
histories, search results) can only run in the database.  Caching their
results at edge servers "can further reduce the number of remote method
invocations whose sole purpose is to reach centralized database
servers".  The manager supports the paper's two refresh protocols:

* **pull**: invalidation marks entries stale; the next read re-executes
  the query at the main server (one RMI);
* **push**: update propagation delivers fresh rows with the
  invalidation, so "query readers are not penalized".

The manager is itself a member of its server's consistency chain
(:mod:`repro.middleware.consistency`): the bus, a crash and the
statistics walk reach it there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from ..rdbms.lru import LruCache
from ..rdbms.sql import parse_cached, statement_footprint
from ..simnet.kernel import Event
from .consistency import ConsistencyInterceptor
from .context import InvocationContext
from .descriptors import QueryCacheDescriptor
from .updates import UPDATER_FACADE

if TYPE_CHECKING:  # pragma: no cover
    from .updates import UpdatePayload

__all__ = ["QueryCacheManager", "QueryCacheStats", "QUERY_CACHE_CAPACITY"]

# Bound on cached parameter tuples per query.  Generous: the
# paper-sweep working sets (categories × regions) stay well under it,
# so the bound only bites for adversarial/unbounded parameter spaces —
# the unbounded-growth hazard this cap exists to close.
QUERY_CACHE_CAPACITY = 4096


class QueryCacheStats:
    """Hit/miss/refresh counters for one cached query."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.push_refreshes = 0
        self.evictions = 0

    def as_dict(self) -> Dict[str, int]:
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "push_refreshes": self.push_refreshes,
        }
        # Emitted only when the capacity bound actually bit, so metric
        # artifacts from runs that never evict stay byte-identical.
        if self.evictions:
            stats["evictions"] = self.evictions
        return stats


class QueryCacheManager(ConsistencyInterceptor):
    """Per-server cache of parameterized aggregate query results."""

    kind = "query_cache"

    def __init__(self, server: Any):
        self.server = server
        self._descriptors: Dict[str, QueryCacheDescriptor] = {}
        # query_id -> bounded LRU of {params: rows}
        self._entries: Dict[str, LruCache] = {}
        self._stale: Dict[str, set] = {}
        # query_id -> tables its SQL reads (for footprint derivation).
        self._tables: Dict[str, Tuple[str, ...]] = {}
        self.stats: Dict[str, QueryCacheStats] = {}

    # -- registration -----------------------------------------------------------
    def register(self, descriptor: QueryCacheDescriptor) -> None:
        self._descriptors[descriptor.query_id] = descriptor
        self._entries.setdefault(descriptor.query_id, LruCache(QUERY_CACHE_CAPACITY))
        self._stale.setdefault(descriptor.query_id, set())
        reads, _ = statement_footprint(parse_cached(descriptor.sql))
        self._tables[descriptor.query_id] = reads
        self.stats.setdefault(descriptor.query_id, QueryCacheStats())

    def handles(self, query_id: str) -> bool:
        return query_id in self._descriptors

    def descriptor(self, query_id: str) -> QueryCacheDescriptor:
        return self._descriptors[query_id]

    # -- read path -----------------------------------------------------------
    def get(
        self, ctx: InvocationContext, query_id: str, params: Tuple
    ) -> Generator[Event, Any, List[dict]]:
        """Cached rows for (query, params); pulls from central on miss."""
        if query_id not in self._descriptors:
            raise KeyError(f"query {query_id!r} is not registered on {self.server.name}")
        if ctx.footprint is not None:
            # A cache hit never reaches the JDBC layer, so the query's
            # read tables are reported here — derived from its SQL, not
            # hand-declared.
            ctx.footprint.add(self._tables[query_id], ())
        stats = self.stats[query_id]
        entries = self._entries[query_id]
        params = tuple(params)
        if params not in self._stale[query_id]:
            rows = entries.get(params)
            if rows is not None:
                stats.hits += 1
                yield from ctx.cpu(0.02)  # local cache lookup
                return list(rows)
        stats.misses += 1
        facade = yield from ctx.lookup(UPDATER_FACADE + "@central")
        rows = yield from facade.call(ctx, "fetch_query", query_id, params)
        self._install(query_id, params, rows)
        return list(rows)

    def _install(self, query_id: str, params: Tuple, rows: List[dict]) -> None:
        evicted = self._entries[query_id].put(params, rows)
        self._stale[query_id].discard(params)
        if evicted is not None:
            self.stats[query_id].evictions += 1
            self._stale[query_id].discard(evicted[0])

    # -- maintenance (the consistency chain) -------------------------------------
    def apply(self, ctx: InvocationContext, payload: "UpdatePayload") -> None:
        """Take the payload's query invalidations and refreshes."""
        for query_id, params in payload.invalidations:
            self.invalidate(query_id, params)
        for query_id, params, rows in payload.query_refreshes:
            self.apply_refresh(query_id, params, rows)

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {
            query_id: self.stats[query_id].as_dict() for query_id in sorted(self.stats)
        }

    def drop_all(self) -> None:
        """Server-process crash: every cached result set is lost.

        Registrations and per-query counters survive — the cache comes
        back registered-but-empty, refilling on demand.
        """
        for query_id in self._entries:
            self._entries[query_id].clear()
            self._stale[query_id].clear()

    def invalidate(self, query_id: str, params: Optional[Tuple]) -> None:
        if query_id not in self._descriptors:
            return
        self.stats[query_id].invalidations += 1
        if params is None:
            self._stale[query_id].update(self._entries[query_id].keys())
        else:
            params = tuple(params)
            if params in self._entries[query_id]:
                self._stale[query_id].add(params)

    def apply_refresh(self, query_id: str, params: Tuple, rows: List[dict]) -> None:
        """Push path: install fresh rows computed at the main server."""
        if query_id not in self._descriptors:
            return
        self._install(query_id, tuple(params), rows)
        self.stats[query_id].push_refreshes += 1

    def is_fresh(self, query_id: str, params: Tuple) -> bool:
        params = tuple(params)
        cache = self._entries.get(query_id)
        return (
            cache is not None
            and params in cache
            and params not in self._stale.get(query_id, set())
        )
