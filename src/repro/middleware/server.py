"""The application server: containers + naming + web tier on one node.

An :class:`AppServer` is the JBoss/Jetty bundle of the paper's testbed.
It hosts whichever containers the deployment plan assigns to it, resolves
component references (local first, then the central server's JNDI tree),
owns the connection pools for RMI and JDBC, and serves HTTP requests.

Reference resolution implements the paper's placement semantics:

* read access to an entity resolves to a **local read-only replica** when
  one is deployed, then a local read-write container, then the central
  server (a remote stub);
* write access skips read-only replicas;
* ``name@central`` forces resolution at the main server (used by replicas
  to reach their updater façade).

A server is built whole, from the :class:`~repro.core.distribution.DeployedSystem`
it joins.  What is deployment-wide has one owner, the system: the network,
the database server, the span table and the resilience counters (handles
taken at construction), the other servers (``system.servers``, which the
crash and pool-liveness paths walk), the data tier and the JMS provider.
What a server hosts is its own: containers, caches, connection pools and
HTTP sessions — what a crash loses.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING, Union

from ..rdbms.jdbc import DataSource, JdbcConfig
from ..rdbms.server import result_wire_size
from ..rdbms.sql import Select, parse_cached, statement_footprint
from ..simnet.kernel import Event
from ..simnet.transport import ConnectionPool
from .consistency import EdgeConsistencyManager, TransactionalMethodCache
from .context import InvocationContext
from .costs import MiddlewareCosts
from .descriptors import ComponentDescriptor, ComponentKind, UpdateMode
from .ejb import BeanError
from .entity import EntityContainer
from .jms import JmsProvider
from .mdb import MessageDrivenContainer
from .naming import JNDI_LOOKUP_REQUEST, JNDI_LOOKUP_RESPONSE, HomeCache, NamingError
from .querycache import QueryCacheManager
from .readonly import ReadOnlyEntityContainer
from .rmi import ComponentRef, LocalRef, RemoteRef
from .session import StatefulSessionContainer, StatelessSessionContainer
from .updates import UPDATER_FACADE
from .web import HttpSessionStore, Response, ServletContainer, WebRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..core.distribution import DeployedSystem
    from ..rdbms.cluster import ClusterDataSource
    from .updates import UpdatePropagator

__all__ = ["AppServer", "result_wire_size"]  # result_wire_size re-exported


class AppServer:
    """One application-server process bound to a testbed node."""

    def __init__(self, system: "DeployedSystem", name: str, costs: MiddlewareCosts):
        # Everything deployment-wide is the system's: this server keeps a
        # handle to each, taken here, and assigns none of them later.
        self.system = system
        self.env = system.env
        self.network = system.testbed.network
        self.node = self.network.node(name)
        self.application = system.application
        self.costs = costs
        self.db_server = system.db_server
        self.trace = system.trace  # SpanRecorder shared across the deployment
        self.resilience = system.resilience
        self.is_main = name == system.plan.main

        self.home_cache = HomeCache(enabled=True)
        self.web_sessions = HttpSessionStore()
        self.containers: Dict[str, Any] = {}
        self._readonly: Dict[str, ReadOnlyEntityContainer] = {}
        # What was resolved per method (containers) and per page (here).
        self._plan_tables: List[dict] = []
        self._pages: Dict[str, ServletContainer] = self.plan_table()
        # The edge-consistency chain: every replica container, the query
        # cache and the method cache join it as they are created.  The
        # typed accessors beside it serve the read path.
        self.consistency = EdgeConsistencyManager()
        self.query_cache: Optional[QueryCacheManager] = None
        self.method_cache: Optional[TransactionalMethodCache] = None
        self.update_propagator: Optional["UpdatePropagator"] = None
        # Availability: clients probing a failed server time out and may
        # fail over to another entry point (§1's availability argument).
        self.available = True

        self._rmi_pools: Dict[str, ConnectionPool] = {}
        # The only cache of this server's data source: a crash drops it,
        # and with it every pooled JDBC connection.
        self._datasource: Optional[Union[DataSource, "ClusterDataSource"]] = None
        # Overridable before first use: the original Pet Store web tier
        # opened un-pooled connections per request (JdbcConfig(pooled=False)).
        self.jdbc_config = JdbcConfig()
        self.http_requests = 0

    # -- identity ------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.node.name

    @property
    def jms(self) -> JmsProvider:
        """The deployment's one messaging provider."""
        return self.system.jms

    def fail(self) -> None:
        """Take this server down (new connections time out)."""
        self.available = False

    def recover(self) -> None:
        """Bring the server back up."""
        self.available = True

    def crash(self) -> None:
        """The server *process* dies: go down AND lose volatile state.

        Unlike :meth:`fail` (a reachability blip), a crash drains
        everything held in process memory — HTTP sessions, stateful bean
        instances, stateless instance pools, whatever the members of the
        consistency chain hold, the home-stub cache, and open connections
        (ours, JDBC included, and the idle sockets other servers pooled
        towards us).  The *node* keeps routing; only the application server
        is gone, so clients can fail over to another entry point while we
        are down.
        """
        self.available = False
        self.resilience.server_crashes += 1
        self.web_sessions.clear()
        for container in self.containers.values():
            drain = getattr(container, "drain", None)
            if drain is not None:
                drain()
        self.consistency.drop_all()
        self.home_cache.invalidate()
        self.drop_call_plans()
        self._rmi_pools.clear()
        self._datasource = None
        for server in self.system.servers.values():
            for pool in server._rmi_pools.values():
                pool.drop_connections_to(self.node.name)

    def restart(self) -> None:
        """Come back up cold: empty caches refill through normal traffic."""
        self.available = True

    def is_wide_area(self, other_node: str) -> bool:
        return self.system.testbed.is_wide_area(self.node.name, other_node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "main" if self.is_main else "edge"
        return f"<AppServer {self.name} ({role})>"

    # -- deployment -----------------------------------------------------------
    def deploy(self, descriptor: ComponentDescriptor, replica: bool = False) -> Any:
        """Instantiate a container for ``descriptor`` on this server.

        ``replica=True`` deploys the read-only flavour of a read-mostly
        entity bean; read access then resolves to it locally.
        """
        self.drop_call_plans()
        if descriptor.kind == ComponentKind.ENTITY:
            if replica:
                container = ReadOnlyEntityContainer(self, descriptor)
                self._readonly[descriptor.name] = container
                self.consistency.register(container)
                return container
            container = EntityContainer(self, descriptor)
        elif descriptor.kind == ComponentKind.STATELESS_SESSION:
            container = StatelessSessionContainer(self, descriptor)
        elif descriptor.kind == ComponentKind.STATEFUL_SESSION:
            container = StatefulSessionContainer(self, descriptor)
        elif descriptor.kind == ComponentKind.MESSAGE_DRIVEN:
            container = MessageDrivenContainer(self, descriptor)
        elif descriptor.kind == ComponentKind.SERVLET:
            container = ServletContainer(self, descriptor)
        else:  # pragma: no cover - enum is closed
            raise BeanError(f"unknown component kind {descriptor.kind}")
        self.containers[descriptor.name] = container
        return container

    def plan_table(self) -> dict:
        """A dict for what its owner resolves once per method or page."""
        self._plan_tables.append({})
        return self._plan_tables[-1]

    def drop_call_plans(self) -> None:
        """Empty every plan table: plans cache what the deployment decides,
        so what changes it here — :meth:`deploy`, the method cache,
        :meth:`crash` — calls this, and each next call resolves again."""
        for table in self._plan_tables:
            table.clear()

    def enable_query_cache(self) -> QueryCacheManager:
        if self.query_cache is None:
            self.query_cache = QueryCacheManager(self)
            self.consistency.register(self.query_cache)
        return self.query_cache

    def enable_method_cache(
        self, mode: UpdateMode = UpdateMode.SYNC
    ) -> TransactionalMethodCache:
        """Activate transactional method caching (level 6) on this server."""
        if self.method_cache is None:
            self.method_cache = TransactionalMethodCache(self, mode)
            self.consistency.register(self.method_cache)
            self.drop_call_plans()
        return self.method_cache

    def container(self, name: str) -> Any:
        try:
            return self.containers[name]
        except KeyError:
            raise NamingError(f"{name!r} is not deployed on {self.name}") from None

    def has_component(self, name: str) -> bool:
        return name in self.containers or name in self._readonly

    def readonly_container(self, name: str) -> Optional[ReadOnlyEntityContainer]:
        return self._readonly.get(name)

    # -- reference resolution ---------------------------------------------------
    def _peer_available(self, node_name: str) -> bool:
        """Liveness oracle for connection pools (counts refusals)."""
        peer = self.system.servers.get(node_name)
        if peer is None or peer.available:
            return True
        self.resilience.pool_refusals += 1
        return False

    def rmi_pool(self, dst_node: str) -> ConnectionPool:
        pool = self._rmi_pools.get(dst_node)
        if pool is None:
            pool = ConnectionPool(
                self.network, kind="rmi", availability=self._peer_available
            )
            self._rmi_pools[dst_node] = pool
        return pool

    def lookup(
        self, ctx: InvocationContext, name: str, for_update: bool = False
    ) -> Generator[Event, Any, ComponentRef]:
        """Resolve ``name`` to a component reference (read-preferring)."""
        # The name as given (an ``@central`` suffix included) is the key of
        # a read lookup, so a cached home costs no string to find.
        cache_key = (name, "w") if for_update else name
        cached = self.home_cache.get(cache_key)
        if cached is not None:
            return cached

        force_central = name.endswith("@central")
        if force_central:
            name = name[: -len("@central")]
        ref: Optional[ComponentRef] = None
        if force_central and self.is_main:
            # This server *is* the central server: resolve locally.
            force_central = False
        if not force_central:
            if not for_update and name in self._readonly:
                ref = LocalRef(self._readonly[name])
            elif name in self.containers:
                ref = LocalRef(self.containers[name])

        if ref is None:
            if self.is_main:
                raise NamingError(f"{name!r} is not deployed anywhere reachable from {self.name}")
            central = self.system.main
            if not central.has_component(name):
                raise NamingError(f"{name!r} is not deployed on central server {central.name}")
            # Remote JNDI lookup against the central tree (unless cached).
            yield from self.network.transfer(
                self.node.name, central.node.name, JNDI_LOOKUP_REQUEST, kind="lookup"
            )
            yield from self.network.transfer(
                central.node.name, self.node.name, JNDI_LOOKUP_RESPONSE, kind="lookup"
            )
            target_container = central.containers.get(name) or central._readonly.get(name)
            ref = RemoteRef(self, central, target_container)

        self.home_cache.put(cache_key, ref)
        return ref

    def lookup_at(
        self, ctx: InvocationContext, name: str, target: "AppServer"
    ) -> Generator[Event, Any, ComponentRef]:
        """A direct reference to ``name`` on a specific server."""
        if target is self:
            return LocalRef(self.container(name))
        container = target.containers.get(name) or target._readonly.get(name)
        if container is None:
            raise NamingError(f"{name!r} is not deployed on {target.name}")
        cache_key = f"{name}@{target.name}"
        cached = self.home_cache.get(cache_key)
        if cached is not None:
            return cached
        ref = RemoteRef(self, target, container)
        self.home_cache.put(cache_key, ref)
        return ref
        yield  # pragma: no cover - resolution is currently synchronous

    # -- database access -----------------------------------------------------
    def datasource(self) -> Union[DataSource, "ClusterDataSource"]:
        """This server's JDBC data source: into the data-tier cluster when
        the deployment has one, else to the single database server."""
        if self._datasource is None:
            cluster = self.system.cluster
            if cluster is not None:
                self._datasource = cluster.datasource_for(
                    self.node.name, self.jdbc_config
                )
            else:
                self._datasource = DataSource(
                    self.network, self.node.name, self.db_server, self.jdbc_config
                )
        return self._datasource

    def db_execute(
        self, ctx: InvocationContext, sql: str, params: Tuple = ()
    ) -> Generator[Event, Any, Any]:
        """Execute SQL against the application database, transaction-aware.

        Inside a container-managed transaction the statement runs on the
        transaction's enlisted connection (opened and ``BEGIN``-ed on
        first use); outside, it runs auto-commit on a pooled connection.
        """
        source = self.datasource()
        # Automatic footprint derivation (level 6): report this
        # statement's read/write tables to any active collector, and
        # record writes on the transaction for the consistency bus.
        # ``parse_cached`` memoizes, so levels 1–5 (no collector, no
        # table tracking) parse here only to label a span.
        collector = ctx.footprint
        transaction = ctx.transaction
        propagator = self.update_propagator
        tracking = (
            transaction is not None
            and propagator is not None
            and propagator.tracks_table_writes
        )
        if collector is not None or tracking:
            reads, writes = statement_footprint(parse_cached(sql))
            if collector is not None:
                collector.add(reads, writes)
            if tracking:
                for table in writes:
                    transaction.record_table_write(table)
        span = None
        if ctx.trace is not None:
            statement = parse_cached(sql)
            table = statement.table.name if isinstance(statement, Select) else statement.table
            span = ctx.start_span(
                "jdbc",
                sql.split(None, 3)[0].lower() + ":" + table,
                wide_area=self.is_wide_area(self.db_server.node.name),
                target=self.db_server.node.name,
                method="execute",
            )
        try:
            if transaction is not None:
                key = ("jdbc", id(source))
                resources = transaction.resources
                if resources is None:
                    resources = transaction.resources = {}
                connection = resources.get(key)
                if connection is None:
                    connection = yield from source.connect()
                    connection.begin()
                    resources[key] = connection
                    transaction.enlist_connection(connection)
                result = yield from connection.execute(sql, params)
            else:
                connection = yield from source.connect()
                result = yield from connection.execute(sql, params)
                connection.close()
        finally:
            ctx.finish_span(span)
        return result

    def can_query_locally(self, query_id: str) -> bool:
        """True when this server can answer the query without a WAN trip.

        The main server executes against the (LAN/loopback) database;
        edge servers answer only from an active query cache — application
        façades use this to decide whether to delegate to their central
        counterpart, as the edge ``Catalog`` bean does (§4.3).
        """
        if self.is_main:
            return True
        return self.query_cache is not None and self.query_cache.handles(query_id)

    def cached_query(
        self, ctx: InvocationContext, query_id: str, params: Tuple = ()
    ) -> Generator[Event, Any, List[dict]]:
        """Run a registered aggregate query, using the edge cache if present
        (a plain function handing back the generator of whoever answers)."""
        cache = self.query_cache
        if cache is not None and cache.handles(query_id):
            return cache.get(ctx, query_id, params)
        return self._uncached_query(ctx, query_id, params)

    def _uncached_query(
        self, ctx: InvocationContext, query_id: str, params: Tuple
    ) -> Generator[Event, Any, List[dict]]:
        sql = self.application.queries.get(query_id)
        if sql is None:
            raise BeanError(f"unknown query id {query_id!r}")
        if not self.is_main:
            # No local cache: fetch through the central façade (one RMI).
            facade = yield from self.lookup(ctx, UPDATER_FACADE + "@central")
            rows = yield from facade.call(ctx, "fetch_query", query_id, tuple(params))
            return rows
        result = yield from self.db_execute(ctx, sql, tuple(params))
        return result.rows

    # -- web tier ------------------------------------------------------------
    def serve(
        self, ctx: InvocationContext, request: WebRequest
    ) -> Generator[Event, Any, Response]:
        """Dispatch an HTTP request to the mapped servlet: a plain function
        handing back its container's generator, so dispatch adds no frame."""
        self.http_requests += 1
        page = request.page
        try:
            container = self._pages[page]
        except KeyError:
            servlet_name = self.application.servlets.get(page)
            container = self.containers.get(servlet_name)
            if container is None:
                raise BeanError(
                    f"no servlet mapped for page {page!r}"
                    if servlet_name is None
                    else f"servlet {servlet_name!r} (page {page!r}) is not "
                    f"deployed on {self.name}"
                ) from None
            self._pages[page] = container
        return container.handle(ctx, request)

