"""The assembled data tier: groups, members and seeded database copies.

:func:`build_cluster` assembles the tier against a deployed testbed:
database *seats* are the main site plus one per edge server, shard
``g``'s replica group occupies ``replication_factor`` consecutive seats
starting at seat ``g % len(seats)`` (spreading leaders across sites),
and each member gets its own :class:`~repro.rdbms.engine.Database` copy
seeded with its partition of the application data (global tables in
full).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..engine import Database
from ..jdbc import JdbcConfig
from ..server import DatabaseServer, DbCostModel
from ...simnet.kernel import Environment
from ...simnet.network import Network, Node
from ...simnet.rng import Streams
from .config import DataTierPolicy
from .raft import HEARTBEAT_MS, RaftGroup, RaftMember
from .router import ClusterDataSource
from .sharding import Partitioner
from .stats import ClusterStats

__all__ = ["MAIN_SEAT", "DataTierCluster", "build_cluster"]

# The main-site database seat (always first; anchors shard 0's leader).
MAIN_SEAT = "db"


class _SeatTarget:
    """Adapter letting the fault injector crash a database *seat*.

    Crashing a seat fail-stops every raft member hosted there (the
    leader of shard 0 lives on the main seat, so ``db-leader-crash``
    forces an election); restart rejoins them as followers and the
    heartbeat catch-up path replays what they missed.
    """

    def __init__(self, cluster: "DataTierCluster", seat: str, node: Node):
        self._cluster = cluster
        self.name = f"db-seat:{seat}"
        self.seat = seat
        self.node = node

    def crash(self) -> None:
        for member in self._cluster.seat_members(self.seat):
            member.crash()

    def restart(self) -> None:
        now = self._cluster.env.now
        for member in self._cluster.seat_members(self.seat):
            member.restart(now)


class DataTierCluster:
    """The assembled data tier: shards × replicas, router, counters."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        tier: DataTierPolicy,
        seats: List[Tuple[str, Node]],
    ):
        self.env = env
        self.network = network
        self.tier = tier
        self.seats = seats
        self.partitioner = Partitioner(tier)
        self.stats = ClusterStats()
        self.groups: List[RaftGroup] = []
        self._driver_started = False

    # -- client surface --------------------------------------------------------
    def datasource_for(
        self, client_node: str, config: Optional[JdbcConfig] = None
    ) -> ClusterDataSource:
        """A new data source routing ``client_node``'s statements into the
        tier.  The caller keeps it: an application server holds its own
        and drops it, pooled connections and all, when it crashes."""
        return ClusterDataSource(self, client_node, config)

    # -- fault surface ---------------------------------------------------------
    def seat_members(self, seat: str) -> List[RaftMember]:
        return [
            member
            for group in self.groups
            for member in group.members
            if member.seat == seat
        ]

    def seat_target(self, seat: str) -> Optional[_SeatTarget]:
        """An injector-compatible crash target for one seat (or None)."""
        for name, node in self.seats:
            if name == seat and self.seat_members(seat):
                return _SeatTarget(self, seat, node)
        return None

    # -- consensus driver ------------------------------------------------------
    def start(self, horizon_ms: float) -> None:
        """Launch the heartbeat/election driver (replicated tiers only).

        Bounded by ``horizon_ms`` — the workload duration — because the
        load generators run the kernel to exhaustion; an unbounded
        driver would never let the simulation drain.
        """
        if not self.tier.replicated or self._driver_started:
            return
        self._driver_started = True
        self.env.process(self._drive(horizon_ms), name="raft-driver")

    def _drive(self, horizon_ms: float):
        while self.env.now + HEARTBEAT_MS <= horizon_ms:
            yield self.env.sleep(HEARTBEAT_MS)
            for group in self.groups:
                group.tick()


def build_cluster(
    env: Environment,
    network: Network,
    tier: DataTierPolicy,
    seats: List[Tuple[str, Node]],
    database: Database,
    streams: Streams,
    cost_model: Optional[DbCostModel] = None,
) -> DataTierCluster:
    """Assemble groups, members and seeded database copies.

    ``seats`` is the ordered list of (seat name, node) pairs offering
    database capacity — the main site first, then the edge servers.
    ``database`` is the fully seeded single-instance database whose rows
    are partitioned across the copies.
    """
    tier.validate(seat_count=len(seats))
    cluster = DataTierCluster(env, network, tier, seats)
    partitioner = cluster.partitioner
    cost_model = cost_model or DbCostModel()
    for index in range(tier.shard_count):
        group = RaftGroup(env, network, f"shard{index}", cluster.stats)
        for offset in range(tier.replication_factor):
            seat, node = seats[(index + offset) % len(seats)]
            copy = Database(f"{database.name}-shard{index}@{seat}")
            _seed_copy(copy, database, tier, partitioner, index)
            server = DatabaseServer(env, node, copy, cost_model=cost_model)
            rng = streams.get(f"cluster.election.shard{index}.{seat}")
            group.add_member(RaftMember(group, seat, node, copy, server, rng))
        cluster.groups.append(group)
    return cluster


def _seed_copy(
    copy: Database,
    source: Database,
    tier: DataTierPolicy,
    partitioner: Partitioner,
    shard: int,
) -> None:
    """Load one member's slice: its shard partition + full global tables."""
    for name in source.tables:
        table = source.tables[name]
        target = copy.create_table(table.schema)
        key = tier.shard_key(name)
        if key is None:
            target.bulk_load(table.scan())
        else:
            target.bulk_load(
                row
                for row in table.scan()
                if partitioner.shard_of(row[key]) == shard
            )
