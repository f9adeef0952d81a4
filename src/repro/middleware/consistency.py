"""The unified edge-consistency substrate.

Levels 3–5 each introduced a mechanism that keeps derived state at edge
servers consistent with writes committed at the main server: read-only
entity replicas (§4.3), aggregate query caches (§4.4), and the JMS
asynchronous variant of their maintenance traffic (§4.5).  Those
mechanisms share one shape — *edge-held state keyed by what it was
derived from, invalidated when the underlying tables change* — and this
module names that shape:

* a **chain member** is an object that holds such state on one server
  and implements :class:`ConsistencyInterceptor`: ``apply(ctx, payload)``
  takes what one bus payload means to it, ``drop_all()`` loses the state
  (not the counters) and ``counters()`` reports it.  The members are the
  mechanisms themselves — a
  :class:`~repro.middleware.readonly.ReadOnlyEntityContainer` per
  replicated bean, the server's
  :class:`~repro.middleware.querycache.QueryCacheManager` and its
  :class:`TransactionalMethodCache` — and no adapter stands between;
* the server **registers** a member with its
  :class:`EdgeConsistencyManager` in the call that creates it
  (``AppServer.deploy(replica=True)``, ``enable_query_cache()``,
  ``enable_method_cache()``), so the chain is exactly what the
  deployment put there;
* three callers **iterate** the chain and none of them names a
  mechanism: the invalidation bus (the updater façade hands every
  arriving :class:`~repro.middleware.updates.UpdatePayload`, sync push
  or JMS, to :meth:`EdgeConsistencyManager.deliver`), a server crash
  (:meth:`EdgeConsistencyManager.drop_all`) and the statistics walk
  (``repro.obs.metrics.collect_cache_stats``, which everything that
  reports edge state reads);
* read/write **table footprints** are collected automatically at the
  JDBC layer through :class:`FootprintCollector` (threaded on
  ``InvocationContext.footprint``), never hand-declared.

On top of the substrate sits the level-6 extension, **transactional
method caching** (Pfeifer & Lockemann, "Theory and Practice of
Transactional Method Caching"): edge containers cache whole
``(bean, method, args) → result`` entries for annotated façade methods,
learn each method's table footprint from the statements it actually
executes, and invalidate transaction-consistently when the bus reports
a commit touching those tables.

Consistency modes mirror the paper's sync-vs-JMS spectrum:

* **strict** (``UpdateMode.SYNC``): zero stale reads.  The writer's
  commit blocks until every edge acked the invalidation, so in
  failure-free operation a read after commit completion always sees the
  invalidation.  Failures are covered by two guards: per-target payload
  *sequence numbers* (a push the RMI layer lost leaves a gap; the next
  arriving payload reveals it and the cache drops everything), and a
  *freshness lease* — the cache serves hits only while the newest
  payload it received was *stamped* within ``lease_ms``.  The lease is
  the RMI deadline (``costs.rmi_timeout_ms``), so a write whose push
  failed cannot complete its commit before the lease that could have
  served its stale entry has expired.
* **bounded** (``UpdateMode.ASYNC``): invalidations arrive via JMS with
  the publish timestamp; hits served between a commit and the arrival
  of its invalidation are counted as stale serves and the propagation
  window is measured — the observable staleness the availability report
  surfaces.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..rdbms.lru import LruCache
from ..simnet.kernel import Event
from .context import InvocationContext
from .descriptors import UpdateMode

if TYPE_CHECKING:  # pragma: no cover
    from .server import AppServer
    from .updates import UpdatePayload

__all__ = [
    "FootprintCollector",
    "ConsistencyInterceptor",
    "TransactionalMethodCache",
    "MethodCacheStats",
    "EdgeConsistencyManager",
    "METHOD_CACHE_CAPACITY",
]

# Bound on live (bean, method, args) entries per server.  Large enough
# that the RUBiS/petstore working sets never evict in the paper sweeps.
METHOD_CACHE_CAPACITY = 4096

# Hit timestamps older than this can never be inside a measured
# staleness window (JMS redelivery gives up long before), so per-entry
# hit logs are pruned past it — bounded memory for hot entries.
_HIT_LOG_HORIZON_MS = 30_000.0


class FootprintCollector:
    """Accumulates the tables a unit of work read and wrote.

    Threaded through :attr:`InvocationContext.footprint`; contributions
    come from the JDBC funnel (parsed statement ASTs), read-only replica
    containers (their mapped table) and query caches (their SQL's
    tables).  Order is first-touch, deduplicated — deterministic for a
    deterministic simulation.
    """

    __slots__ = ("tables_read", "tables_written")

    def __init__(self):
        self.tables_read: List[str] = []
        self.tables_written: List[str] = []

    def add(self, reads=(), writes=()) -> None:
        for table in reads:
            if table not in self.tables_read:
                self.tables_read.append(table)
        for table in writes:
            if table not in self.tables_written:
                self.tables_written.append(table)


class ConsistencyInterceptor:
    """What a member of a server's consistency chain implements.

    ``kind`` names the mechanism (the section of ``cache_stats`` its
    counters land in); ``name`` tells apart several members of one kind
    on one server — a replica container's is its component — and stays
    None for a mechanism a server holds once.
    """

    kind: str
    name: Optional[str] = None

    def apply(self, ctx: InvocationContext, payload: "UpdatePayload") -> None:
        """Take from one bus payload what concerns this member's state."""
        raise NotImplementedError

    def drop_all(self) -> None:
        """Server-process crash: the state is gone, the counters survive."""
        raise NotImplementedError

    def counters(self) -> Dict[str, Any]:
        """This member's counters, as its entry of ``cache_stats``."""
        raise NotImplementedError


class MethodCacheStats:
    """Counters for one server's transactional method cache."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0   # entries dropped by bus payloads
        self.stale_serves = 0    # hits that returned provably stale results
        self.seq_gaps = 0        # lost-push detections (strict mode)
        self.drops = 0           # whole-cache drops (seq gap or crash)
        self.rejected_stores = 0  # results not cached: method wrote tables
        self.missed_payloads = 0  # failed pushes observed (ground truth)
        self.staleness_events = 0
        self.staleness_total_ms = 0.0
        self.staleness_max_ms = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_serves": self.stale_serves,
            "seq_gaps": self.seq_gaps,
            "drops": self.drops,
            "rejected_stores": self.rejected_stores,
            "missed_payloads": self.missed_payloads,
            "staleness_events": self.staleness_events,
            "staleness_total_ms": round(self.staleness_total_ms, 3),
            "staleness_max_ms": round(self.staleness_max_ms, 3),
        }


class _Entry:
    __slots__ = ("result", "tables_read")

    def __init__(self, result: Any, tables_read: Tuple[str, ...]):
        self.result = result
        self.tables_read = tables_read


def _copy_result(value: Any) -> Any:
    """Structural copy so cached results cannot alias caller mutations."""
    if isinstance(value, dict):
        return {key: _copy_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_result(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_copy_result(item) for item in value)
    return value


class TransactionalMethodCache(ConsistencyInterceptor):
    """Level 6: (bean, method, args) → result caching at one edge server.

    Entries carry the read-table footprint *learned* from the JDBC
    statements the method executed on its first (miss) invocation; a
    method observed writing any table is never cached (its writes would
    be silently skipped on hits) and is recorded as a design-rule R7
    violation.  Bus payloads invalidate every entry whose footprint
    intersects the committed write set.
    """

    kind = "method_cache"
    HIT_CPU_MS = 0.02  # local lookup, same as a query-cache hit

    def __init__(self, server: "AppServer", mode: UpdateMode = UpdateMode.SYNC):
        self.server = server
        self.mode = mode
        self.strict = mode == UpdateMode.SYNC
        # Strict-mode freshness lease: the RMI deadline (the zero-staleness
        # argument in the module docstring needs lease_ms <= rmi_timeout_ms).
        self.lease_ms = float(server.costs.rmi_timeout_ms)
        self._entries = LruCache(METHOD_CACHE_CAPACITY)
        self._by_table: Dict[str, Set[tuple]] = {}
        self._methods: Set[Tuple[str, str]] = set()
        self._no_store: Set[Tuple[str, str]] = set()
        # (component, method) -> tables it wrote: the R7 evidence.
        self.write_violations: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # Bounded mode: per-entry serve timestamps, for counting hits
        # that landed inside a commit→invalidation propagation window.
        self._hit_log: Dict[tuple, List[float]] = {}
        # Strict mode ground truth: entries whose invalidating push the
        # RMI layer lost (measurement only — never consulted to serve).
        self._compromised: Dict[tuple, float] = {}
        # Stamp of the newest bus payload received (strict lease gate).
        self._last_sent = server.env.now
        self._last_seq = 0
        self.stats = MethodCacheStats()

    # -- registration -----------------------------------------------------------
    def register(self, component: str, methods) -> None:
        for method in methods:
            self._methods.add((component, method))
        self.server.drop_call_plans()  # plans hold the answer of intercepts()

    def intercepts(self, component: str, method: str) -> bool:
        return (component, method) in self._methods

    def entry_count(self) -> int:
        return len(self._entries)

    def counters(self) -> Dict[str, Any]:
        return self.stats.as_dict()

    def footprint_of(self, component: str, method: str) -> Optional[Tuple[str, ...]]:
        """The learned read footprint of a cached method (None = no entry)."""
        for key in self._entries.keys():
            if key[0] == component and key[1] == method:
                return self._entries.peek(key).tables_read
        return None

    # -- call-path interception ---------------------------------------------------
    # BaseContainer.invoke drives these: find; serve on a hit; on a miss
    # the uncached call with a collector attached, then learn.
    def find(self, component: str, method: str, args: tuple, now: float) -> tuple:
        """``(key, entry)`` of a call.  The key is None when the call can be
        neither served nor stored (the method was seen writing, or an
        argument is unhashable) and simply runs uncached; the entry is
        None on a miss — no entry, or strict mode's lease ran out."""
        if (component, method) in self._no_store:
            return None, None
        key = (component, method, args)
        try:
            hash(key)
        except TypeError:
            return None, None
        entry = None
        if not self.strict or now - self._last_sent <= self.lease_ms:
            entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        return key, entry

    def serve(
        self, ctx: InvocationContext, key: tuple, entry: _Entry
    ) -> Generator[Event, Any, Any]:
        """A hit: charge the lookup and hand out a copy of the result."""
        self.stats.hits += 1
        yield from ctx.cpu(self.HIT_CPU_MS)
        if ctx.footprint is not None:
            # A nested hit still contributes its reads to the
            # enclosing method's learned footprint.
            ctx.footprint.add(entry.tables_read, ())
        now = ctx.env.now
        if self.strict:
            if key in self._compromised:
                self.stats.stale_serves += 1
        else:
            log = self._hit_log.setdefault(key, [])
            log.append(now)
            horizon = now - _HIT_LOG_HORIZON_MS
            while log and log[0] < horizon:
                log.pop(0)
        return _copy_result(entry.result)

    def learn(
        self, ctx: InvocationContext, key: tuple, collector: FootprintCollector, result: Any
    ) -> None:
        """Store a missed call's result under the footprint it was seen
        reading — or never again, if it was seen writing."""
        if ctx.footprint is not None:
            ctx.footprint.add(collector.tables_read, collector.tables_written)
        if collector.tables_written:
            method = key[:2]
            self._no_store.add(method)
            self.write_violations.setdefault(method, tuple(collector.tables_written))
            self.stats.rejected_stores += 1
            return
        self._store(key, result, tuple(collector.tables_read))

    def _store(self, key: tuple, result: Any, tables_read: Tuple[str, ...]) -> None:
        evicted = self._entries.put(key, _Entry(_copy_result(result), tables_read))
        self.stats.stores += 1
        for table in tables_read:
            self._by_table.setdefault(table, set()).add(key)
        if evicted is not None:
            evicted_key, evicted_entry = evicted
            self.stats.evictions += 1
            self._forget(evicted_key, evicted_entry.tables_read)

    def _forget(self, key: tuple, tables_read: Tuple[str, ...]) -> None:
        for table in tables_read:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]
        self._hit_log.pop(key, None)
        self._compromised.pop(key, None)

    # -- bus delivery -----------------------------------------------------------
    @staticmethod
    def _payload_tables(payload: "UpdatePayload") -> List[str]:
        tables = list(payload.tables)
        for event in payload.events:
            if event.table not in tables:
                tables.append(event.table)
        return tables

    def apply(self, ctx: InvocationContext, payload: "UpdatePayload") -> None:
        now = self.server.env.now
        if payload.seq is not None:
            if payload.seq != self._last_seq + 1:
                # A push between the last one we saw and this one never
                # arrived: its invalidations are lost, so nothing held
                # here can be trusted any more.
                self.stats.seq_gaps += 1
                self.drop_all()
            if payload.seq > self._last_seq:
                self._last_seq = payload.seq
        if payload.sent_at is not None and payload.sent_at > self._last_sent:
            self._last_sent = payload.sent_at
        tables = self._payload_tables(payload)
        if tables:
            self._invalidate_tables(tables, payload.sent_at, now)

    def _invalidate_tables(
        self, tables: List[str], sent_at: Optional[float], now: float
    ) -> None:
        affected: List[tuple] = []
        for table in tables:
            keys = self._by_table.get(table)
            if keys:
                affected.extend(keys)
        if not affected:
            return
        window_counted = False
        for key in dict.fromkeys(affected):
            entry = self._entries.pop(key)
            if entry is None:
                continue
            self.stats.invalidations += 1
            if not self.strict and sent_at is not None:
                log = self._hit_log.get(key)
                if log:
                    self.stats.stale_serves += sum(1 for t in log if t > sent_at)
                if not window_counted:
                    window = now - sent_at
                    self.stats.staleness_events += 1
                    self.stats.staleness_total_ms += window
                    if window > self.stats.staleness_max_ms:
                        self.stats.staleness_max_ms = window
                    window_counted = True
            self._forget(key, entry.tables_read)

    def mark_missed(self, payload: "UpdatePayload", now: float) -> None:
        """Ground-truth instrumentation: a push to this server was lost.

        Called by the propagator (which *knows* the push failed) so that
        any later hit on an entry the lost payload would have
        invalidated can be counted as a stale serve.  Strict mode's
        lease/sequence guards are supposed to make that count stay zero
        — the fault-injection suite asserts exactly that.
        """
        self.stats.missed_payloads += 1
        tables = set(self._payload_tables(payload))
        if not tables:
            return
        for table in tables:
            for key in self._by_table.get(table, ()):
                self._compromised.setdefault(key, now)

    def drop_all(self) -> None:
        """Lose every entry (crash, or a detected lost invalidation)."""
        self._entries.clear()
        self._by_table.clear()
        self._hit_log.clear()
        self._compromised.clear()
        self.stats.drops += 1


class EdgeConsistencyManager:
    """One server's consistency chain: the members, in registration order.

    The server registers each mechanism as it creates it; the bus, a
    crash and the statistics walk iterate whatever is there.
    """

    def __init__(self):
        self._chain: List[ConsistencyInterceptor] = []

    def register(self, member: ConsistencyInterceptor) -> None:
        self._chain.append(member)

    def members(self) -> List[ConsistencyInterceptor]:
        return list(self._chain)

    def deliver(self, ctx: InvocationContext, payload: "UpdatePayload") -> bool:
        """Apply an arriving bus payload to every member, in chain order."""
        for member in self._chain:
            member.apply(ctx, payload)
        return True

    def drop_all(self) -> None:
        """Server-process crash: every member loses its state."""
        for member in self._chain:
            member.drop_all()
