"""Read-only entity bean containers (the Read-Mostly pattern, §4.3).

A read-only container holds a local cache of entity state at an edge
server.  Business (read) methods run against the cache with local
response time; any attempted write raises.  State arrives either

* **push**: the main server's update propagation delivers fresh state
  with the invalidation (clients "will always have local response
  times"), or
* **pull**: an invalidation only marks entries stale, and the first
  business call afterwards refreshes by querying the remote updater
  façade ("one RMI call").

Cold misses always pull — a replica cannot invent state it never saw.

The container is itself a member of its server's consistency chain
(:mod:`repro.middleware.consistency`): the bus, a crash and the
statistics walk reach it there.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Dict, Generator, Set

from ..simnet.kernel import Event
from .consistency import ConsistencyInterceptor
from .context import InvocationContext, UpdateEvent
from .descriptors import ComponentDescriptor, ComponentKind
from .ejb import BeanError
from .session import BaseContainer
from .updates import UPDATER_FACADE

if TYPE_CHECKING:  # pragma: no cover
    from .updates import UpdatePayload

__all__ = ["ReadOnlyEntityContainer", "ReadOnlyViolation"]


class ReadOnlyViolation(BeanError):
    """A business method attempted to mutate read-only replica state."""


class ReadOnlyEntityContainer(BaseContainer, ConsistencyInterceptor):
    """Cache-backed, read-only replica of an entity bean type."""

    kind = "replicas"

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.ENTITY or descriptor.read_mostly is None:
            raise BeanError(
                f"{descriptor.name!r} is not a read-mostly entity bean"
            )
        super().__init__(server, descriptor)
        self.schema = server.application.schemas[descriptor.table]
        self._cache: Dict[Any, Dict[str, Any]] = {}
        self._stale: Set[Any] = set()
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self.invalidations = 0

    # -- replica maintenance (the consistency chain) ----------------------------
    def apply(self, ctx: InvocationContext, payload: "UpdatePayload") -> None:
        """Take the payload's events for this component."""
        name = self.name
        for event in payload.events:
            if event.component == name:
                self.apply_update(event)

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "refreshes": self.refreshes,
            "invalidations": self.invalidations,
        }

    def apply_update(self, event: UpdateEvent) -> None:
        """One bus event: install the state pushed with it, or — an event
        that carries none (pull mode) — mark the entry stale."""
        if event.partial:
            # Delta push (§4.3): merge changed fields into the cached row.
            # A replica that never saw the full row cannot apply a delta —
            # it invalidates and pulls on next use instead.
            cached = self._cache.get(event.primary_key)
            if cached is None or event.primary_key in self._stale:
                self.invalidate(event.primary_key)
                return
            # Copy-on-write: the cached dict may be a pushed event's
            # state, which every edge's replica shares.
            self._cache[event.primary_key] = {**cached, **event.state}
            return
        if event.state:
            self._cache[event.primary_key] = event.state
            self._stale.discard(event.primary_key)
        else:
            self.invalidate(event.primary_key)

    def drop_all(self) -> None:
        """Server-process crash: the replica restarts cold (counters survive).

        Subsequent reads repopulate entity by entity through the normal
        pull-on-miss path — one WAN round trip each — which is exactly
        the post-restart degradation the availability report measures.
        """
        self._cache.clear()
        self._stale.clear()

    def invalidate(self, primary_key: Any = None) -> None:
        """Pull-path: mark one entry (or everything) stale."""
        self.invalidations += 1
        if primary_key is None:
            self._stale.update(self._cache.keys())
        elif primary_key in self._cache:
            self._stale.add(primary_key)

    def preload(self, rows) -> int:
        """Install fresh state for many rows at once (warm-up helper).

        Stands in for the measurement-excluded warm-up traffic of the
        paper's one-hour runs; returns the number of entries loaded.
        """
        count = 0
        pk_column = self.schema.primary_key
        for row in rows:
            self._cache[row[pk_column]] = row
            self._stale.discard(row[pk_column])
            count += 1
        return count

    def cached_keys(self) -> Set[Any]:
        return set(self._cache)

    def is_fresh(self, primary_key: Any) -> bool:
        return primary_key in self._cache and primary_key not in self._stale

    # -- state acquisition -----------------------------------------------------
    def _refresh(
        self, ctx: InvocationContext, primary_key: Any
    ) -> Generator[Event, Any, Dict[str, Any]]:
        """A miss: pull from the central updater façade, exactly one RMI call."""
        self.misses += 1
        facade = yield from ctx.lookup(UPDATER_FACADE + "@central")
        state = yield from facade.call(ctx, "fetch_state", self.name, primary_key)
        if state is None:
            raise BeanError(f"{self.name}: no entity with key {primary_key!r}")
        self._cache[primary_key] = state
        self._stale.discard(primary_key)
        self.refreshes += 1
        return self._cache[primary_key]

    # -- dispatch ------------------------------------------------------------
    def invoke(
        self, ctx: InvocationContext, method: str, args: tuple, identity: Any = None
    ) -> Generator[Event, Any, Any]:
        """A replica read: no pool and no transaction, so the call plan is
        consulted for the method's function alone."""
        self.invocations += 1
        work = ctx.costs.bean_method_base
        if work:
            yield from self._cpu_use(work)
        if ctx.footprint is not None:
            # Replica reads never reach the JDBC layer; the mapped table
            # is this container's whole read footprint.
            ctx.footprint.add((self.descriptor.table,), ())

        if identity is None:
            if method == "find_by_primary_key":
                (primary_key,) = args
                # Existence is established on first state access; the
                # find itself is local.
                return primary_key
            raise BeanError(
                f"read-only bean {self.name!r} does not support home method "
                f"{method!r}; aggregate queries belong to query caches"
            )

        if identity in self._cache and identity not in self._stale:
            self.hits += 1
            state = self._cache[identity]
        else:
            state = yield from self._refresh(ctx, identity)
        instance = self.descriptor.impl()
        instance.primary_key = identity
        instance.state = dict(state)
        try:
            plan = self._plans[method]
        except KeyError:
            plan = self._plan(method, self._plans)
        result = plan[0](instance, ctx, *args)  # (function, is_generator, ...)
        if plan[1] or result.__class__ is GeneratorType:
            result = yield from result
        if instance._dirty_fields:
            raise ReadOnlyViolation(
                f"method {method!r} mutated read-only replica "
                f"{self.name}[{identity!r}] on {self.server.name}"
            )
        return result
