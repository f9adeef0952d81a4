"""Deployment orchestration: build a running distributed system.

``distribute()`` is the library's top-level entry point: given a testbed,
an application descriptor, a placement policy (or a pattern level, which
compiles to its canned policy), and a populated database, it returns a
:class:`DeployedSystem` with application servers stood up on their
nodes, containers instantiated and wired, replicas and caches
registered, the JMS provider and update propagator configured — ready
for clients to issue page requests against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..faults.stats import ResilienceStats
from ..middleware.costs import MiddlewareCosts
from ..middleware.descriptors import ApplicationDescriptor, ComponentKind
from ..middleware.jms import JmsProvider
from ..middleware.server import AppServer
from ..middleware.updates import UPDATE_TOPIC, UpdatePropagator
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..rdbms.cluster import DataTierCluster, MAIN_SEAT, build_cluster
from ..rdbms.engine import Database
from ..rdbms.server import DatabaseServer, DbCostModel
from ..simnet.kernel import Environment
from ..simnet.rng import Streams
from ..simnet.monitor import Trace
from ..simnet.topology import Testbed
from .automation import AutomationReport, apply_policy
from .patterns import PatternLevel
from .planner import DeploymentPlan, plan_deployment
from .policy import PlacementPolicy, level_policy

__all__ = ["DeployedSystem", "distribute"]


@dataclass
class DeployedSystem:
    """A running deployment: servers, database, plan, and wiring evidence."""

    env: Environment
    testbed: Testbed
    application: ApplicationDescriptor
    level: PatternLevel
    servers: Dict[str, AppServer]
    db_server: DatabaseServer
    plan: DeploymentPlan
    automation: AutomationReport
    trace: Optional[Trace] = None
    spans: Optional["SpanRecorder"] = None
    metrics: Optional["MetricsRegistry"] = None
    resilience: Optional[ResilienceStats] = None
    policy: Optional[PlacementPolicy] = None
    # Sharded/replicated data tier; None under a single-instance policy.
    cluster: Optional[DataTierCluster] = None
    _entry_servers: Dict[str, AppServer] = field(default_factory=dict, init=False, repr=False)

    @property
    def main(self) -> AppServer:
        return self.servers[self.plan.main]

    @property
    def edges(self) -> List[AppServer]:
        return [self.servers[name] for name in self.plan.edges]

    def server_for_client(self, client_node: str) -> AppServer:
        """The application server on the client's LAN (session affinity)."""
        for server_name, clients in self.testbed.client_nodes.items():
            if client_node in clients:
                return self.servers[server_name]
        raise KeyError(f"{client_node!r} is not a client node of this testbed")

    def entry_server_for(self, client_node: str) -> AppServer:
        """Where the client actually connects.

        Clients use the server on their LAN when the plan marks it as an
        entry server (it hosts the complete web tier); otherwise they
        cross the WAN to the main server — in the centralized
        configuration "the main server got all 30 HTTP requests per
        second, whereas the edge servers were not used at all" (§4.1).
        Memoised per client node: every page fetch asks, and the plan
        and the testbed are fixed once :func:`distribute` returns.
        """
        try:
            return self._entry_servers[client_node]
        except KeyError:
            server = self.server_for_client(client_node)
            if server.name not in self.plan.entry_servers:
                server = self.main
            self._entry_servers[client_node] = server
            return server

    def warm_replicas(self) -> int:
        """Preload every read-only replica with current database state.

        Equivalent to the paper's measurement-excluded warm-up phase
        ("several minutes of system warm-up, if needed", §3.3) having
        touched every entity; returns the number of entries loaded.
        """
        loaded = 0
        database = self.db_server.database
        for server in self.servers.values():
            for name in self.plan.replicas:
                container = server.readonly_container(name)
                if container is None:
                    continue
                table = database.table(container.descriptor.table)
                loaded += container.preload(table.scan())
        return loaded

    def warm_query_caches(self, params_by_query: Dict[str, list]) -> int:
        """Preload query caches for the given parameter tuples.

        Executes each cached query once against the (pure) engine and
        installs the rows on every server with an active cache; a query
        no server caches is not executed.  Returns the number of cache
        entries installed.  Like :meth:`warm_replicas`, this stands in
        for warm-up traffic excluded from measurement.
        """
        installed = 0
        database = self.db_server.database
        for query_id, params_list in params_by_query.items():
            sql = self.application.queries.get(query_id)
            caches = [
                server.query_cache
                for server in self.servers.values()
                if server.query_cache is not None and server.query_cache.handles(query_id)
            ]
            if sql is None or not caches:
                continue
            for params in params_list:
                params = tuple(params)
                rows = [dict(r) for r in database.execute(sql, params).rows]
                for cache in caches:
                    cache.apply_refresh(query_id, params, rows)
                installed += len(caches)
        return installed

    def utilization_report(self) -> Dict[str, float]:
        report = {
            name: server.node.cpu_utilization()
            for name, server in self.servers.items()
        }
        report[self.db_server.node.name + " (db)"] = self.db_server.node.cpu_utilization()
        return report


def distribute(
    env: Environment,
    testbed: Testbed,
    application: ApplicationDescriptor,
    policy: Union[PlacementPolicy, PatternLevel, int],
    database: Database,
    costs: Optional[MiddlewareCosts] = None,
    db_cost_model: Optional[DbCostModel] = None,
    trace: Optional[Trace] = None,
    spans: Optional[SpanRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    streams: Optional[Streams] = None,
) -> DeployedSystem:
    """Deploy ``application`` across the testbed under ``policy``.

    ``policy`` is a :class:`PlacementPolicy`; a bare
    :class:`PatternLevel` (or int) selects the matching canned policy,
    which is how the paper's five configurations run.  ``streams`` is
    only consulted when the policy declares a ``data_tier`` block (the
    cluster's election timers draw from named streams).
    """
    if not isinstance(policy, PlacementPolicy):
        policy = level_policy(PatternLevel(policy), application)
    level = policy.effective_level()
    costs = costs or MiddlewareCosts()

    # 1. Extended-descriptor automation (§5) tailors the app to the policy.
    automation = apply_policy(application, policy)

    # 2. Placement.
    plan = plan_deployment(
        application, testbed.main_server, list(testbed.edge_servers), policy
    )

    # 3. Database server on its node.
    db_server = DatabaseServer(
        env, testbed.network.node(testbed.db_server), database, cost_model=db_cost_model
    )

    # 3b. Sharded/replicated data tier, only when the policy declares one.
    # Seats are the main site plus one per edge; each raft member gets
    # its own seeded Database copy, so the original single-instance
    # database (still used for replica/cache warm-up at t=0) is untouched.
    cluster = None
    if policy.data_tier is not None:
        seats = [(MAIN_SEAT, testbed.network.node(testbed.db_server))] + [
            (name, testbed.network.node(name)) for name in testbed.edge_servers
        ]
        cluster = build_cluster(
            env,
            testbed.network,
            policy.data_tier,
            seats,
            database,
            streams or Streams(),
            cost_model=db_cost_model,
        )

    # 4. Application servers.
    servers: Dict[str, AppServer] = {}
    for server_name in plan.all_servers:
        server = AppServer(
            env=env,
            node=testbed.network.node(server_name),
            application=application,
            costs=costs,
            db_server=db_server,
            trace=trace,
            is_main=(server_name == plan.main),
            wide_area_of=testbed.is_wide_area,
            spans=spans,
            metrics=metrics,
        )
        server.attach_network(testbed.network)
        server.cluster = cluster
        servers[server_name] = server
    main = servers[plan.main]
    for server in servers.values():
        if server is not main:
            server.central = main

    # One ResilienceStats shared by every server: retries, timeouts and
    # staleness are system-wide observations, and crash handling needs
    # each server to know its peers so their idle sockets can be dropped.
    resilience = ResilienceStats()
    for server in servers.values():
        server.resilience = resilience
        server.peers = {
            name: other for name, other in servers.items() if other is not server
        }

    # 5. Messaging provider lives on the main server.
    jms = JmsProvider(env, main)
    jms.metrics = metrics
    for server in servers.values():
        server.jms = jms

    # 6. Containers per the plan.
    for name, placement in plan.placements.items():
        descriptor = application.components[name]
        for server_name in placement:
            servers[server_name].deploy(descriptor)

    # 7. Read-only replicas.
    replica_servers: List[str] = []
    for name, placement in plan.replicas.items():
        descriptor = application.components[name]
        for server_name in placement:
            servers[server_name].deploy(descriptor, replica=True)
            if server_name not in replica_servers:
                replica_servers.append(server_name)

    # 8. Query caches.
    for server_name in plan.query_cache_servers:
        manager = servers[server_name].enable_query_cache()
        for cache in application.query_caches.values():
            manager.register(cache)
        if server_name not in replica_servers:
            replica_servers.append(server_name)

    # 8b. Transactional method caches (level 6): one cache per server,
    # fed by the same invalidation bus as replicas and query caches.
    method_cache_servers: List[str] = []
    for name in sorted(plan.method_caches):
        descriptor = application.components[name]
        for server_name in plan.method_caches[name]:
            cache = servers[server_name].enable_method_cache(mode=policy.update_mode)
            cache.register(descriptor.name, descriptor.cached_methods)
            if server_name not in method_cache_servers:
                method_cache_servers.append(server_name)
            if server_name not in replica_servers:
                replica_servers.append(server_name)

    # 9. Update propagation from the main server to every replica host.
    if replica_servers:
        propagator = UpdatePropagator(
            main, targets=[servers[name] for name in replica_servers]
        )
        if method_cache_servers:
            # Method caches invalidate by table footprint, so every
            # commit's write set must ride the bus from now on.
            propagator.tracks_table_writes = True
            propagator.table_update_mode = policy.update_mode
        main.update_propagator = propagator

    # 10. Subscribe message-driven beans to their topics.
    for name, placement in plan.placements.items():
        descriptor = application.components[name]
        if descriptor.kind != ComponentKind.MESSAGE_DRIVEN:
            continue
        if not policy.async_updates and descriptor.topic == UPDATE_TOPIC:
            continue  # the subscriber exists but is idle under sync push
        for server_name in placement:
            topic = jms.topic(descriptor.topic)
            topic.subscribe(servers[server_name], servers[server_name].container(name))

    return DeployedSystem(
        env=env,
        testbed=testbed,
        application=application,
        level=level,
        servers=servers,
        db_server=db_server,
        plan=plan,
        automation=automation,
        trace=trace,
        spans=spans,
        metrics=metrics,
        resilience=resilience,
        policy=policy,
        cluster=cluster,
    )
