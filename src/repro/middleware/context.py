"""Invocation and transaction contexts threaded through component code.

Every component method in this middleware is a generator taking an
:class:`InvocationContext` as its first argument.  The context knows
*where* the code is running (which application server), *why* (which
page request), and *within what* (which transaction) — so the same
application code runs unmodified under any deployment, and distribution
costs arise purely from placement.  That placement-obliviousness is the
heart of the paper's container-mediated approach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, Generator, Optional, Sequence, TYPE_CHECKING

from ..simnet.kernel import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .costs import MiddlewareCosts
    from .server import AppServer
    from ..obs.spans import Span, SpanRecorder
    from ..simnet.monitor import Trace

__all__ = [
    "RequestInfo",
    "UpdateEvent",
    "TransactionContext",
    "InvocationContext",
    "TransactionError",
]


class TransactionError(Exception):
    """Raised on transaction lifecycle misuse in the middleware layer."""


_request_ids = itertools.count(1)
_transaction_ids = itertools.count(1)


def reset_ids() -> None:
    """Restart request/transaction numbering (called per experiment cell).

    Ids are only meaningful within one run; restarting them per cell
    makes exported span tables independent of how many cells the hosting
    process ran before — the serial/parallel byte-identity contract.
    """
    global _request_ids, _transaction_ids
    _request_ids = itertools.count(1)
    _transaction_ids = itertools.count(1)


class RequestInfo:
    """Identity of the client page request being served."""

    __slots__ = ("page", "client_group", "session_id", "client_node", "id")

    def __init__(
        self,
        page: str,
        client_group: str,
        session_id: str,
        client_node: str,
        id: Optional[int] = None,
    ):
        self.page = page
        self.client_group = client_group
        self.session_id = session_id
        self.client_node = client_node
        self.id = next(_request_ids) if id is None else id


@dataclass
class UpdateEvent:
    """One committed write that must reach read-only replicas/caches.

    ``state`` is the full post-commit entity state (the paper notes that
    pushing only changed fields is an optimization; ``changed_fields``
    carries that information for the delta-push variant).
    """

    component: str
    table: str
    primary_key: Any
    state: Dict[str, Any]
    changed_fields: tuple = ()
    deleted: bool = False
    inserted: bool = False
    # True when ``state`` carries only the changed fields (the §4.3
    # "transferring only the changes" optimization).
    partial: bool = False


class TransactionContext:
    """A container-managed transaction spanning beans and the database.

    Collects: dirty entity instances to ``ejbStore`` at commit, JDBC
    connections to commit, and update events to propagate to edge
    replicas.  The commit sequence reproduces §4.3/§4.5: store, database
    commit, then *blocking* synchronous push (or non-blocking asynchronous
    publish) of replica updates.
    """

    # Every collection is empty until its first entry allocates it: almost
    # all transactions of a read-heavy deployment end as empty as they
    # began, and one is started per façade call.  These are the shared,
    # never-mutated empties; ``enlisted`` says some entry was made (while
    # it is False, committing is setting ``state``).
    enlisted = False
    _enlisted_entities: Sequence[tuple] = ()  # (container, instance)
    _enlisted_seen: AbstractSet[tuple] = frozenset()
    _connections: Sequence[Any] = ()  # JdbcConnection, committed in order
    update_events: Sequence[UpdateEvent] = ()
    # Tables written by this transaction (first-write order).  The
    # consistency bus turns these into method-cache invalidations.
    written_tables: Sequence[str] = ()
    # Scratch space for containers (per-tx entity instance caches,
    # enlisted JDBC connections by datasource, ...), keyed by owner;
    # whoever stores the first entry creates the dict.
    resources: Optional[Dict[Any, Any]] = None

    def __init__(self, ctx: "InvocationContext", read_only_hint: bool = False):
        self.id = next(_transaction_ids)
        self.read_only = True  # flips on first write
        self.read_only_hint = read_only_hint
        self.state = "active"

    # -- enlistment -----------------------------------------------------------
    def enlist_entity(self, container: Any, instance: Any) -> None:
        key = (id(container), getattr(instance, "primary_key", id(instance)))
        if key in self._enlisted_seen:
            return
        if not self._enlisted_seen:
            self.enlisted = True
            self._enlisted_seen, self._enlisted_entities = set(), []
        self._enlisted_seen.add(key)
        self._enlisted_entities.append((container, instance))

    def enlist_connection(self, connection: Any) -> None:
        if connection not in self._connections:
            if not self._connections:
                self.enlisted = True
                self._connections = []
            self._connections.append(connection)

    def mark_write(self) -> None:
        if self.read_only_hint:
            raise TransactionError("write inside a transaction hinted read-only")
        self.read_only = False

    def add_update_event(self, event: UpdateEvent) -> None:
        if not self.update_events:
            self.enlisted = True
            self.update_events = []
        self.update_events.append(event)

    def record_table_write(self, table: str) -> None:
        if table and table not in self.written_tables:
            if not self.written_tables:
                self.enlisted = True
                self.written_tables = []
            self.written_tables.append(table)

    # -- completion -----------------------------------------------------------
    def commit(self, ctx: "InvocationContext") -> Generator[Event, Any, None]:
        if self.state != "active":
            raise TransactionError(f"commit on a {self.state} transaction")
        # 1. Synchronize dirty (or all, with the unoptimized ejbStore
        #    behaviour) entity instances back to the database.
        for container, instance in self._enlisted_entities:
            yield from container.store_instance(ctx, self, instance)
        # 2. Commit every enlisted database connection.
        for connection in self._connections:
            if connection.session.in_transaction:
                yield from connection.commit()
            connection.close()
        self.state = "committed"
        # 3. Propagate updates to edge replicas (blocking iff synchronous).
        #    Propagation runs outside this (now completed) transaction —
        #    its refresh queries auto-commit on fresh connections.
        propagator = ctx.server.update_propagator if ctx.server else None
        if propagator is not None and (
            self.update_events
            or (propagator.tracks_table_writes and self.written_tables)
        ):
            post_commit_ctx = ctx.in_transaction(None)
            yield from propagator.propagate(
                post_commit_ctx,
                self.update_events,
                written_tables=self.written_tables,
            )

    def rollback(self, ctx: "InvocationContext") -> Generator[Event, Any, None]:
        if self.state != "active":
            raise TransactionError(f"rollback on a {self.state} transaction")
        for container, instance in self._enlisted_entities:
            container.discard_instance(instance)
        for connection in self._connections:
            if connection.session.in_transaction:
                yield from connection.rollback()
            connection.close()
        self.update_events = self.written_tables = ()
        self.state = "aborted"


class InvocationContext:
    """Where/why/within-what a component method is executing.

    ``cpu(work_ms)`` charges CPU time on the current server's node
    (``yield from`` it).  It is the node's own ``compute``, bound when
    the context is made, so a charge reaches ``Resource.use`` in one
    call.
    """

    __slots__ = (
        "env", "server", "request", "costs", "trace", "transaction",
        "depth", "spans", "span_id", "footprint", "cpu",
    )

    def __init__(
        self,
        env: Environment,
        server: "AppServer",
        request: RequestInfo,
        costs: "MiddlewareCosts",
        trace: Optional["Trace"] = None,
        transaction: Optional[TransactionContext] = None,
        depth: int = 0,
        spans: Optional["SpanRecorder"] = None,
        span_id: Optional[int] = None,
        footprint: Optional[Any] = None,
    ):
        self.env = env
        self.server = server
        self.request = request
        self.costs = costs
        self.trace = trace
        self.transaction = transaction
        self.depth = depth
        self.spans = spans
        self.span_id = span_id
        # Active table-footprint collector (see repro.middleware.consistency).
        # Travels across servers with the call — a delegated sub-call's
        # reads still belong to the caller's method footprint.
        self.footprint = footprint
        self.cpu = None if server is None else server.node.compute

    # -- derived contexts (positional clones: one call, no keyword parsing) ------
    def at_server(self, server: "AppServer") -> "InvocationContext":
        """The context seen by the callee of a cross-server RMI call.

        The transaction does NOT propagate across servers: remote façade
        calls start their own container-managed transactions, which is
        how the EJB deployments in the paper behave (no distributed 2PC
        across the WAN).
        """
        return InvocationContext(
            self.env, server, self.request, server.costs, self.trace, None,
            self.depth + 1, self.spans, self.span_id, self.footprint,
        )

    def in_transaction(self, transaction: TransactionContext) -> "InvocationContext":
        return InvocationContext(
            self.env, self.server, self.request, self.costs, self.trace, transaction,
            self.depth, self.spans, self.span_id, self.footprint,
        )

    def with_footprint(self, footprint: Any) -> "InvocationContext":
        """The context seen by work whose table accesses ``footprint``
        collects (the method-cache miss path)."""
        return InvocationContext(
            self.env, self.server, self.request, self.costs, self.trace, self.transaction,
            self.depth, self.spans, self.span_id, footprint,
        )

    def in_span(self, span: Optional["Span"]) -> "InvocationContext":
        """The context seen by work nested under ``span``.

        Returns ``self`` unchanged when tracing is off (``span`` None),
        so instrumented call sites stay allocation-free in the common
        untraced path.
        """
        if span is None:
            return self
        return InvocationContext(
            self.env, self.server, self.request, self.costs, self.trace, self.transaction,
            self.depth, self.spans, span.id, self.footprint,
        )

    # -- effects -----------------------------------------------------------
    def lookup(self, component_name: str):
        """Resolve a component reference (see AppServer.lookup).

        Generator: remote JNDI lookups cost a network round trip unless
        the EJBHomeFactory cache already holds the home stub.
        """
        return self.server.lookup(self, component_name)

    def start_span(
        self,
        kind: str,
        name: str,
        node: Optional[str] = None,
        wide_area: bool = False,
        target: Optional[str] = None,
        method: Optional[str] = None,
        parent_id: Optional[int] = None,
    ):
        """Open a child span of the current one; None when tracing is off.

        ``node`` defaults to the executing server's node; ``parent_id``
        defaults to this context's span (pass one explicitly to attach
        asynchronous work, e.g. a JMS delivery, to its publish span).
        """
        if self.spans is None:
            return None
        request = self.request
        return self.spans.start_span(
            kind=kind,
            name=name,
            node=node if node is not None else (self.server.node.name if self.server else "?"),
            time=self.env.now,
            parent_id=parent_id if parent_id is not None else self.span_id,
            request_id=request.id if request else None,
            wide_area=wide_area,
            page=request.page if request else None,
            group=request.client_group if request else None,
            target=target,
            method=method,
        )

    def finish_span(self, span) -> None:
        if span is not None:
            self.spans.finish_span(span, self.env.now)

    def record_call(
        self, kind: str, dst_node: str, target: str, method: str, duration: float = 0.0
    ) -> None:
        if self.trace is None:
            return
        from ..simnet.monitor import CallRecord

        src = self.server.node.name
        self.trace.record(
            CallRecord(
                time=self.env.now,
                kind=kind,
                src_node=src,
                dst_node=dst_node,
                target=target,
                method=method,
                wide_area=self.server.is_wide_area(dst_node),
                page=self.request.page if self.request else None,
                request_id=self.request.id if self.request else None,
                duration=duration,
            )
        )
