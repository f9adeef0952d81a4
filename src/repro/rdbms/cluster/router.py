"""The shard router: JDBC-compatible access to a sharded, replicated tier.

:class:`ClusterDataSource` / :class:`ClusterConnection` duck-type the
:class:`~repro.rdbms.jdbc.DataSource` / ``JdbcConnection`` surface the
middleware already speaks (``connect``/``execute``/``begin``/``commit``/
``rollback``/``close``), so `AppServer.db_execute` and the
container-managed transaction machinery route through the cluster with
no changes to application code — exactly the policy-over-code stance of
the paper, extended to the data tier.

Under the hood every statement is classified by
:func:`~repro.rdbms.cluster.sharding.route_statement`:

* **single-shard** statements run on one replica group through a real
  per-member :class:`~repro.rdbms.jdbc.DataSource` (pooling, auth and
  wire costs all inherited);
* **scatter-gather** SELECTs fan out to every group in parallel and
  merge;
* **broadcast** writes run on every group (global-table maintenance);
* cross-shard write transactions pay an explicit two-phase-commit
  prepare round before the per-group commits, and every committed write
  batch is handed to the group's raft log for quorum replication.

Reads honour the policy's ``read_mode``: ``leader`` (default; the
group's leader, no confirmation round) or ``stale-local`` (nearest
replica on the calling node, with the staleness of missed commits
*measured* and exported).  Leader resolution retries with a fixed
deterministic backoff while an election is in progress, counting
``router_failovers``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from ..executor import ResultSet
from ..jdbc import DataSource, JdbcConfig, JdbcConnection, JdbcError
from ..sql import Statement
from ...simnet.kernel import Event
from ...simnet.network import NetworkError
from ...simnet.router import PacketLoss
from ...simnet.transport import NodeUnavailable
from .raft import ACK_SIZE, RaftGroup, RaftMember
from .sharding import Route, merge_results, route_statement

__all__ = ["ClusterDataSource", "ClusterConnection"]

PREPARE_SIZE = 96  # 2PC prepare message

# Fixed (deterministic, RNG-free) backoff while a group elects a leader.
LEADER_RETRY_BACKOFF_MS = (100.0, 200.0, 400.0, 800.0, 1600.0, 2000.0)

_NETWORK_ERRORS = (NetworkError, PacketLoss, NodeUnavailable)


class _ClusterSession:
    """Duck-types ``DbSession`` for the transaction-context contract."""

    def __init__(self, connection: "ClusterConnection"):
        self._connection = connection

    @property
    def in_transaction(self) -> bool:
        return self._connection._explicit


class ClusterDataSource:
    """Routes one client node's statements into the data-tier cluster.

    Holds one real :class:`DataSource` per replica the client talks to,
    so connection pooling and the verbose JDBC wire model apply
    per-replica exactly as they do against the single-instance tier.
    """

    def __init__(self, cluster, client_node: str, config: Optional[JdbcConfig] = None):
        self.cluster = cluster
        self.network = cluster.network
        self.env = cluster.env
        self.client_node = client_node
        self.config = config or JdbcConfig()
        self._sources: Dict[str, DataSource] = {}
        self._known_leaders: Dict[int, RaftMember] = {}

    # -- DataSource surface ----------------------------------------------------
    def connect(self) -> Generator[Event, Any, "ClusterConnection"]:
        """A logical routing connection (physical ones open lazily)."""
        return ClusterConnection(self)
        yield  # pragma: no cover - acquisition is lazy, per-statement

    # -- member plumbing -------------------------------------------------------
    def source_for(self, member: RaftMember) -> DataSource:
        source = self._sources.get(member.name)
        if source is None:
            source = DataSource(
                self.network, self.client_node, member.server, self.config
            )
            self._sources[member.name] = source
        return source

    def member_connection(
        self, member: RaftMember
    ) -> Generator[Event, Any, JdbcConnection]:
        connection = yield from self.source_for(member).connect()
        return connection

    def leader_connection(
        self, group_index: int
    ) -> Generator[Event, Any, Tuple[JdbcConnection, RaftMember, RaftGroup]]:
        """Connect to the group's leader, riding out elections.

        Retries with a fixed backoff while no live leader exists (a
        crash triggered an election) and counts a ``router_failover``
        whenever the leadership moved since this client last looked.
        """
        group = self.cluster.groups[group_index]
        stats = self.cluster.stats
        last_error: Optional[Exception] = None
        for attempt, delay in enumerate(LEADER_RETRY_BACKOFF_MS + (None,)):
            leader = group.live_leader()
            if leader is not None:
                known = self._known_leaders.get(group_index)
                if known is not None and known is not leader:
                    stats.router_failovers += 1
                self._known_leaders[group_index] = leader
                try:
                    connection = yield from self.source_for(leader).connect()
                    return connection, leader, group
                except _NETWORK_ERRORS as error:
                    last_error = error
            if delay is None:
                break
            yield self.env.sleep(delay)
        if last_error is not None:
            raise last_error
        raise NodeUnavailable(
            f"raft group {group.name}: no live leader after "
            f"{len(LEADER_RETRY_BACKOFF_MS) + 1} attempts"
        )


class ClusterConnection:
    """One logical connection through the router (duck-types JdbcConnection)."""

    def __init__(self, source: ClusterDataSource):
        self.source = source
        self.session = _ClusterSession(self)
        self.closed = False
        self._explicit = False
        self._read_only = False
        # Per-group transactional state, keyed by group index.
        self._txn_conns: Dict[int, JdbcConnection] = {}
        self._txn_leaders: Dict[int, RaftMember] = {}
        self._txn_batches: Dict[int, List[Tuple[str, Tuple[Any, ...]]]] = {}

    @property
    def _stats(self):
        return self.source.cluster.stats

    @property
    def _tier(self):
        return self.source.cluster.tier

    # -- statements -----------------------------------------------------------
    def execute(
        self,
        statement: Union[str, Statement],
        params: Tuple[Any, ...] = (),
    ) -> Generator[Event, Any, ResultSet]:
        if self.closed:
            raise JdbcError("execute on a closed connection")
        route = route_statement(
            statement, params, self._tier, self.source.cluster.partitioner
        )
        if route.is_write:
            result = yield from self._execute_write(route, statement, params)
        else:
            result = yield from self._execute_read(route, statement, params)
        return result

    # -- writes ---------------------------------------------------------------
    def _execute_write(
        self,
        route: Route,
        statement: Union[str, Statement],
        params: Tuple[Any, ...],
    ) -> Generator[Event, Any, ResultSet]:
        if route.kind == "single":
            self._stats.single_shard_statements += 1
            targets = [route.shard]
        else:
            self._stats.broadcast_writes += 1
            targets = list(range(len(self.source.cluster.groups)))
        results: List[ResultSet] = []
        if self._explicit:
            for index in targets:
                connection = yield from self._txn_connection(index)
                result = yield from connection.execute(statement, params)
                self._txn_batches[index].append((statement, params))
                results.append(result)
        else:
            for index in targets:
                connection, leader, group = yield from self.source.leader_connection(index)
                try:
                    # Auto-commit: the server commits implicitly inside
                    # execute, so the session is never left open.
                    result = yield from connection.execute(statement, params)
                finally:
                    connection.close()
                if self._tier.replicated:
                    yield from group.commit_batch(leader, [(statement, params)])
                results.append(result)
        if len(results) == 1:
            return results[0]
        return merge_results(statement, results)

    def _txn_connection(
        self, group_index: int
    ) -> Generator[Event, Any, JdbcConnection]:
        connection = self._txn_conns.get(group_index)
        if connection is None:
            connection, leader, _group = yield from self.source.leader_connection(
                group_index
            )
            connection.begin(read_only=self._read_only)
            self._txn_conns[group_index] = connection
            self._txn_leaders[group_index] = leader
            self._txn_batches[group_index] = []
        return connection

    # -- reads ----------------------------------------------------------------
    def _execute_read(
        self,
        route: Route,
        statement: Union[str, Statement],
        params: Tuple[Any, ...],
    ) -> Generator[Event, Any, ResultSet]:
        if route.kind == "single":
            self._stats.single_shard_statements += 1
            result = yield from self._read_one(route.shard, statement, params)
            return result
        # Scatter-gather: one child per shard, in parallel; a child
        # failure fails the whole query (the waiter sees the exception).
        self._stats.scatter_gather_queries += 1
        env = self.source.env
        children = [
            env.process(
                self._read_one(index, statement, params),
                name=f"scatter:{self.source.client_node}:{index}",
            )
            for index in range(len(self.source.cluster.groups))
        ]
        outcome = yield env.all_of(children)
        results = [outcome[index] for index in range(len(children))]
        return merge_results(statement, results)

    def _read_one(
        self,
        group_index: int,
        statement: Union[str, Statement],
        params: Tuple[Any, ...],
    ) -> Generator[Event, Any, ResultSet]:
        """One group's share of a read, honouring the policy read mode."""
        group = self.source.cluster.groups[group_index]
        stats = self._stats
        # Inside an explicit transaction, reads on a group the transaction
        # has written to go through its enlisted leader connection
        # (read-your-writes); groups the transaction never touched follow
        # the policy read_mode like any other read.
        if self._explicit:
            connection = self._txn_conns.get(group_index)
            if connection is not None:
                stats.reads_leader += 1
                result = yield from connection.execute(statement, params)
                return result
        if self._tier.read_mode == "stale-local" and self._tier.replicated:
            member = group.member_on(self.source.client_node)
            if member is not None and member.alive:
                stats.reads_stale_local += 1
                if member.applied_index < group.commit_index:
                    # This replica has not applied every committed write:
                    # the read is stale by the age of the oldest miss.
                    stats.stale_reads_served += 1
                    missed = group.log[member.applied_index]
                    if missed.commit_time is not None:
                        stats.staleness_ms += self.source.env.now - missed.commit_time
                connection = yield from self.source.member_connection(member)
                try:
                    result = yield from connection.execute(statement, params)
                finally:
                    connection.close()
                return result
            # No live local replica for this group: fall back to the leader.
        connection, _leader, _group = yield from self.source.leader_connection(group_index)
        try:
            result = yield from connection.execute(statement, params)
        finally:
            connection.close()
        stats.reads_leader += 1
        return result

    # -- transactions -----------------------------------------------------------
    def begin(self, read_only: bool = False) -> None:
        if self._explicit:
            raise JdbcError("connection already in a transaction")
        self._explicit = True
        self._read_only = read_only

    def commit(self) -> Generator[Event, Any, None]:
        if self.closed:
            raise JdbcError("commit on a closed connection")
        participants = sorted(self._txn_conns)
        if len(participants) >= 2:
            # Two-phase commit: an explicit prepare round trip to every
            # participant leader before any of them commits.
            self._stats.cross_shard_txns += 1
            self._stats.two_phase_commits += 1
            network = self.source.network
            client = self.source.client_node
            for index in participants:
                leader = self._txn_leaders[index]
                yield from network.transfer(
                    client, leader.node.name, PREPARE_SIZE, "2pc-prepare"
                )
                yield from network.transfer(
                    leader.node.name, client, ACK_SIZE, "2pc-ack"
                )
        error: Optional[Exception] = None
        try:
            for index in participants:
                connection = self._txn_conns.pop(index)
                leader = self._txn_leaders.pop(index)
                batch = self._txn_batches.pop(index, None)
                if error is None:
                    try:
                        if connection.session.in_transaction:
                            yield from connection.commit()
                        connection.close()
                        if batch and self._tier.replicated:
                            group = self.source.cluster.groups[index]
                            yield from group.commit_batch(leader, batch)
                        continue
                    except _NETWORK_ERRORS as exc:
                        error = exc
                # A participant failed: roll the rest back (best effort)
                # instead of leaving locked sessions behind.
                try:
                    if connection.session.in_transaction:
                        yield from connection.rollback()
                    connection.close()
                except _NETWORK_ERRORS:
                    pass
        finally:
            self._txn_conns.clear()
            self._txn_leaders.clear()
            self._txn_batches.clear()
            self._explicit = False
        if error is not None:
            raise error

    def rollback(self) -> Generator[Event, Any, None]:
        if self.closed:
            raise JdbcError("rollback on a closed connection")
        try:
            for index in sorted(self._txn_conns):
                connection = self._txn_conns[index]
                if connection.session.in_transaction:
                    yield from connection.rollback()
                connection.close()
        finally:
            self._txn_conns.clear()
            self._txn_leaders.clear()
            self._txn_batches.clear()
            self._explicit = False

    def close(self) -> None:
        if self.closed:
            return
        if self._explicit or self._txn_conns:
            raise JdbcError("close with an open transaction; commit or rollback first")
        self.closed = True
