"""Update propagation from read-write beans to edge replicas and caches.

Implements both halves of the paper's consistency spectrum:

* §4.3 **synchronous blocking push** — at transaction commit the writer
  blocks while one bulk RMI call per edge server delivers new entity
  state, query invalidations and query refreshes (zero staleness: "a
  read operation that arrives after a previous write has committed will
  always read the correct value");
* §4.5 **asynchronous updates** — the same payload is published once to
  a JMS topic at commit, one message per transaction (nothing batches or
  delays it); ``UpdateSubscriber`` MDBs on the edge servers apply it,
  and the writer returns immediately.

Which half a deployment runs is the policy's ``update_mode``, held by
the one :class:`UpdatePropagator` on the main server: each commit builds
one payload, which the propagator either pushes or publishes.

The ``UpdaterFacade`` stateless session bean is the single remote entry
point for replica maintenance: edges *pull* state and query results from
it, and the propagator *pushes* through it — "updates to read-only beans
and query caches are made in one bulk RMI call" (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..simnet.kernel import Event
from .context import InvocationContext, UpdateEvent
from .descriptors import (
    ComponentDescriptor,
    ComponentKind,
    QueryCacheDescriptor,
    RefreshMode,
    TxAttribute,
    UpdateMode,
)
from .ejb import MessageDrivenBean, StatelessSessionBean
from .resilience import RETRYABLE_ERRORS, RmiTimeout

if TYPE_CHECKING:  # pragma: no cover
    from .server import AppServer

__all__ = [
    "UpdaterFacadeBean",
    "UpdateSubscriberMdb",
    "UpdatePropagator",
    "UpdatePayload",
    "UPDATER_FACADE",
    "UPDATE_SUBSCRIBER",
    "UPDATE_TOPIC",
]

UPDATER_FACADE = "UpdaterFacade"
UPDATE_SUBSCRIBER = "UpdateSubscriber"
UPDATE_TOPIC = "replica-updates"


@dataclass
class UpdatePayload:
    """The bulk update shipped to one edge server (or one JMS message).

    The last three fields exist for the consistency bus (level 6):
    ``tables`` carries the committing transaction's write set so method
    caches can invalidate by footprint, ``sent_at`` stamps when the
    payload left the main server (strict lease gate / bounded staleness
    measurement), and ``seq`` is the per-target sequence number that
    lets a strict-mode cache detect a lost push.  They are populated
    only when a deployment activates method caching, so levels 1–5
    ship byte-identical payloads.

    A payload is complete before it is first sized: :meth:`wire_size`
    seals its lists into tuples, so an append after sizing raises.
    """

    events: Sequence[UpdateEvent] = field(default_factory=list)
    invalidations: Sequence[Tuple[str, Optional[tuple]]] = field(default_factory=list)
    query_refreshes: Sequence[Tuple[str, tuple, List[dict]]] = field(default_factory=list)
    tables: Sequence[str] = field(default_factory=list)
    sent_at: Optional[float] = None
    seq: Optional[int] = None
    _wire_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def empty(self) -> bool:
        return not (
            self.events or self.invalidations or self.query_refreshes or self.tables
        )

    def wire_size(self) -> int:
        """Serialized size; identical to the pre-level-6 payload layout
        whenever the consistency-bus fields are unset.

        The payload is walked once, on the first call, which also seals
        it; every sync push and JMS delivery of it reuses the size.
        """
        if self._wire_size is None:
            from .marshalling import sizeof

            self.events = tuple(self.events)
            self.invalidations = tuple(self.invalidations)
            self.query_refreshes = tuple(self.query_refreshes)
            self.tables = tuple(self.tables)
            body = {
                "events": self.events,
                "invalidations": self.invalidations,
                "query_refreshes": self.query_refreshes,
            }
            if self.tables:
                body["tables"] = self.tables
            if self.sent_at is not None:
                body["sent_at"] = self.sent_at
            if self.seq is not None:
                body["seq"] = self.seq
            self._wire_size = 32 + sizeof(body)
        return self._wire_size


class UpdaterFacadeBean(StatelessSessionBean):
    """Auto-deployed façade for replica state exchange.

    On the main server it answers ``fetch_state`` / ``fetch_query``
    pulls; on edge servers it applies pushed payloads.  A single bean
    class keeps the protocol in one place, mirroring how a container
    provider would ship it (§5 automation).
    """

    # -- pull endpoints (main server) --------------------------------------
    def fetch_state(self, ctx, component: str, primary_key):
        """Full entity state for a replica refresh — one bulk answer.

        Reads the *authoritative* read-write bean (``for_update`` lookup),
        never a read-only replica — a replica answering another replica's
        refresh would be circular.
        """
        home = yield from ctx.server.lookup(ctx, component, for_update=True)
        state = yield from home.call(ctx, "get_state", identity=primary_key)
        return state

    def fetch_query(self, ctx, query_id: str, params):
        """Execute a registered aggregate query at the data centre."""
        sql = ctx.server.application.queries[query_id]
        result = yield from ctx.server.db_execute(ctx, sql, tuple(params))
        return result.rows

    # -- push endpoint (edge servers) ----------------------------------------
    def apply_updates(self, ctx, payload: UpdatePayload):
        """Dispatch a bulk update payload through the consistency chain.

        Every mechanism holding edge state on this server is a member of
        its :class:`~repro.middleware.consistency.EdgeConsistencyManager`
        and takes from the payload what concerns it; this façade does
        not know which mechanisms are deployed.
        """
        yield from ctx.cpu(0.05 * (len(payload.events) or 1))
        return ctx.server.consistency.deliver(ctx, payload)


class UpdateSubscriberMdb(MessageDrivenBean):
    """§4.5's asynchronous façade: applies payloads arriving via JMS."""

    def on_message(self, ctx, message):
        facade = yield from ctx.lookup(UPDATER_FACADE)
        result = yield from facade.call(ctx, "apply_updates", message.body)
        return result


def updater_facade_descriptor() -> ComponentDescriptor:
    return ComponentDescriptor(
        name=UPDATER_FACADE,
        kind=ComponentKind.STATELESS_SESSION,
        impl=UpdaterFacadeBean,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
        remote_interface=True,
        edge_from_level=3,  # present wherever replicas/caches may live
    )


def update_subscriber_descriptor() -> ComponentDescriptor:
    return ComponentDescriptor(
        name=UPDATE_SUBSCRIBER,
        kind=ComponentKind.MESSAGE_DRIVEN,
        impl=UpdateSubscriberMdb,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
        remote_interface=False,
        topic=UPDATE_TOPIC,
    )


class UpdatePropagator:
    """Commit-time propagation engine on the main server."""

    def __init__(
        self, server: "AppServer", targets: List["AppServer"], mode: UpdateMode
    ):
        self.server = server
        self.targets = list(targets)
        self.mode = mode
        # Level 6: when any target runs a transactional method cache,
        # every commit's write-table set rides the bus (even commits
        # producing no replica events), payloads are stamped, and sync
        # pushes carry per-target sequence numbers.  Off by default so
        # levels 1–5 propagate exactly as before.
        self.tracks_table_writes = False
        self._seq: dict = {}  # target server name -> last sequence sent
        self.sync_pushes = 0
        self.async_publishes = 0
        self.blocking_time_total = 0.0

    def counters(self) -> Dict[str, int]:
        """Cumulative propagation counters, by metric name."""
        return {
            "propagator.sync_pushes": self.sync_pushes,
            "propagator.async_publishes": self.async_publishes,
        }

    # -- payload assembly ---------------------------------------------------
    def _derived_invalidations(
        self, events: List[UpdateEvent]
    ) -> List[Tuple[QueryCacheDescriptor, Optional[tuple]]]:
        derived = []
        for cache in self.server.application.query_caches.values():
            for event in events:
                if event.table not in cache.invalidated_by:
                    continue
                key = cache.key_of_update(event) if cache.key_of_update else None
                derived.append((cache, key))
        return derived

    def build_payload(
        self,
        ctx: InvocationContext,
        events: List[UpdateEvent],
    ) -> Generator[Event, Any, UpdatePayload]:
        """The replica events and query-cache work of one commit."""
        payload = UpdatePayload()
        for event in events:
            descriptor = self.server.application.components.get(event.component)
            if descriptor is None or descriptor.read_mostly is None:
                # No replicas consume this bean's state; the event exists
                # only to derive query-cache invalidations below.
                continue
            read_mostly = descriptor.read_mostly
            shipped = event
            if read_mostly.refresh_mode == RefreshMode.PULL:
                shipped = UpdateEvent(
                    component=event.component,
                    table=event.table,
                    primary_key=event.primary_key,
                    state={},  # invalidation only; replicas pull on demand
                    changed_fields=event.changed_fields,
                    inserted=event.inserted,
                )
            elif (
                ctx.costs.push_delta_only
                and event.changed_fields
                and not event.inserted
            ):
                # §4.3: push "only the changes instead of the entire
                # bean's state (i.e., fields that were modified)".
                shipped = UpdateEvent(
                    component=event.component,
                    table=event.table,
                    primary_key=event.primary_key,
                    state={f: event.state[f] for f in event.changed_fields},
                    changed_fields=event.changed_fields,
                    partial=True,
                )
            payload.events.append(shipped)

        seen = set()
        for descriptor, params in self._derived_invalidations(events):
            marker = (descriptor.query_id, params)
            if marker in seen:
                continue
            seen.add(marker)
            if descriptor.refresh_mode == RefreshMode.PUSH and params is not None:
                # Compute fresh rows now so readers are never penalized.
                result = yield from self.server.db_execute(
                    ctx, descriptor.sql, tuple(params)
                )
                payload.query_refreshes.append(
                    (descriptor.query_id, tuple(params), result.rows)
                )
            else:
                payload.invalidations.append((descriptor.query_id, params))
        return payload

    # -- propagation -----------------------------------------------------------
    def propagate(
        self,
        ctx: InvocationContext,
        events: List[UpdateEvent],
        written_tables: Tuple[str, ...] = (),
    ) -> Generator[Event, Any, None]:
        if not self.targets:
            return
        # All propagation work — refresh queries, sync pushes, JMS
        # publishes — nests under one "propagate" span, so the tree-based
        # design-rule checker can exclude replica maintenance structurally.
        span = ctx.start_span("propagate", "replica-updates")
        ctx = ctx.in_span(span)
        try:
            payload = yield from self.build_payload(ctx, events)
            if self.tracks_table_writes:
                for table in written_tables:
                    if table not in payload.tables:
                        payload.tables.append(table)
            if payload.empty:
                return
            if self.mode == UpdateMode.ASYNC:
                if self.tracks_table_writes:
                    payload.sent_at = ctx.env.now
                yield from self.server.jms.publish(ctx, UPDATE_TOPIC, payload)
                self.async_publishes += 1
            else:
                start = ctx.env.now
                pushes = [
                    ctx.env.process(
                        self._push_one(ctx, target, payload),
                        name=f"sync-push-{target.name}",
                    )
                    for target in self.targets
                ]
                yield ctx.env.all_of(pushes)
                self.sync_pushes += 1
                self.blocking_time_total += ctx.env.now - start
        finally:
            ctx.finish_span(span)

    def _push_one(
        self, ctx: InvocationContext, target: "AppServer", payload: UpdatePayload
    ) -> Generator[Event, Any, None]:
        stats = self.server.resilience
        shipped = payload
        if self.tracks_table_writes:
            # Per-target copy: the stamp and sequence number are assigned
            # together, synchronously, so stamp order equals sequence
            # order — the invariant the strict-mode staleness proof needs.
            seq = self._seq.get(target.name, 0) + 1
            self._seq[target.name] = seq
            shipped = UpdatePayload(
                events=payload.events,
                invalidations=payload.invalidations,
                query_refreshes=payload.query_refreshes,
                tables=payload.tables,
                sent_at=ctx.env.now,
                seq=seq,
            )
        try:
            ref = yield from self.server.lookup_at(ctx, UPDATER_FACADE, target)
            yield from ref.call(ctx, "apply_updates", shipped)
        except (RmiTimeout,) + RETRYABLE_ERRORS:
            # The transaction already committed locally; a push that the
            # RMI layer could not land just leaves this replica stale.
            stats.sync_push_failures += 1
            stats.dropped_updates += 1
            stats.mark_stale(target.name, ctx.env.now)
            cache = target.method_cache
            if cache is not None:
                # Ground truth for the staleness audit: this target never
                # saw the payload (the seq gap it leaves is what the
                # cache's own guards must catch).
                cache.mark_missed(shipped, ctx.env.now)
            return
        stats.mark_fresh(target.name, ctx.env.now)
