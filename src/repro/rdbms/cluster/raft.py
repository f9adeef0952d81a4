"""Raft-style replication of one shard's write log over simnet links.

Each shard is a :class:`RaftGroup`: ``replication_factor`` members, one
per database *seat* (the main site plus edge servers), each owning a full
:class:`~repro.rdbms.engine.Database` copy of the shard.  The group
replicates committed write batches through a leader:

* the leader appends a :class:`LogEntry` and fans the bytes out to the
  followers in parallel; the client's commit resumes when a **quorum**
  (majority) has acknowledged — or fails with ``NodeUnavailable`` after
  the replication deadline, exactly like any other unavailable resource;
* a heartbeat/election driver, ticking every ``HEARTBEAT_MS``, keeps the
  group live: followers that miss heartbeats past a randomized-but-seeded
  timeout drawn from ``ELECTION_TIMEOUT_MS`` campaign for the leadership
  (terms, votes, log-completeness check), and heartbeats carry
  *catch-up* — entries a crashed or partitioned follower missed — plus
  the commit index that lets followers apply entries to their copy.

Only writes wait for a quorum: a read goes to the member the group
records as its leader (or a local replica, see :mod:`.router`) with no
read-index round.

Determinism: election timeouts are the only randomness, drawn from one
named :class:`~repro.simnet.rng.Streams` stream per member
(``cluster.election.<group>.<seat>``); everything else is fixed-order
iteration over the member list.  Every spawned child catches network
errors internally, so a mid-flight partition never crashes the kernel.

The log is a single shared list per group (this is a simulation — the
bytes moved and the time taken are modeled, the copies are not), with
per-member ``replicated_index``/``applied_index`` cursors.  Followers
execute committed batches against their own database copy when the
commit index reaches them; the leader's copy already holds the writes
(the client executed them there), so the leader only advances cursors.
"""

from __future__ import annotations

import random
from typing import Any, Generator, List, Optional, Tuple

from ..engine import Database, DatabaseError
from ..executor import ExecutionError
from ..expressions import EvaluationError
from ..server import DatabaseServer
from ..sql import SqlError
from ..storage import StorageError
from ..transactions import TransactionError
from ..types import TypeError_
from ...simnet.kernel import Environment, Event
from ...simnet.network import Network, NetworkError, Node
from ...simnet.router import PacketLoss
from ...simnet.transport import NodeUnavailable
from .stats import ClusterStats

__all__ = ["LogEntry", "RaftMember", "RaftGroup"]

# What executing a committed statement raises when the statement or its
# parameters are bad: the engine's own errors, nothing else.
_APPLY_ERRORS = (
    DatabaseError,
    SqlError,
    ExecutionError,
    EvaluationError,
    StorageError,
    TransactionError,
    TypeError_,
)

# Wire sizes (bytes) for the consensus control plane.
HEARTBEAT_SIZE = 48
ACK_SIZE = 48
VOTE_REQUEST_SIZE = 64
VOTE_RESPONSE_SIZE = 48
ENTRY_BASE_SIZE = 64
PER_PARAM_SIZE = 8

# A quorum commit that takes longer than this counts as unavailable.
REPLICATION_TIMEOUT_MS = 4_000.0

# The driver's tick: leaders heartbeat, followers check their timers.
HEARTBEAT_MS = 75.0
# The range a follower's election timeout is drawn from.  It must
# comfortably exceed the heartbeat round trip *under load* (WAN one-way
# latency is 100 ms and heartbeats queue behind page traffic), or
# followers election-storm in steady state.
ELECTION_TIMEOUT_MS = (1000.0, 2000.0)


def batch_wire_size(batch: List[Tuple[Any, Tuple[Any, ...]]]) -> int:
    """Approximate serialized size of one write batch."""
    size = ENTRY_BASE_SIZE
    for sql, params in batch:
        size += (len(sql) if isinstance(sql, str) else 80) + PER_PARAM_SIZE * len(params)
    return size


class LogEntry:
    """One committed-write batch in a group's replicated log."""

    __slots__ = ("term", "batch", "size", "commit_time")

    def __init__(self, term: int, batch: List[Tuple[str, Tuple[Any, ...]]]):
        self.term = term
        self.batch = batch
        self.size = batch_wire_size(batch)
        self.commit_time: Optional[float] = None  # set at quorum


class RaftMember:
    """One replica: a database copy + server seat, with raft state."""

    def __init__(
        self,
        group: "RaftGroup",
        seat: str,
        node: Node,
        database: Database,
        server: DatabaseServer,
        rng: random.Random,
    ):
        self.group = group
        self.seat = seat
        self.node = node
        self.database = database
        self.server = server
        self.rng = rng
        self.alive = True
        # Consensus state (survives crashes — the log is durable).
        self.term = 1
        self.voted_for: Optional[str] = None
        self.role = "follower"  # follower | candidate | leader
        self.replicated_index = 0  # entries present in this member's log
        self.applied_index = 0  # entries executed on this member's database
        self.applying = False  # an _apply pass is running (no concurrent ones)
        self.last_heartbeat = 0.0
        self.timeout_ms = self._draw_timeout()

    def _draw_timeout(self) -> float:
        return self.rng.uniform(*ELECTION_TIMEOUT_MS)

    @property
    def name(self) -> str:
        return f"{self.group.name}/{self.seat}"

    def crash(self) -> None:
        """Fail-stop: stop participating; durable state is kept."""
        self.alive = False
        if self.role == "leader":
            self.role = "follower"

    def restart(self, now: float) -> None:
        """Rejoin as a follower with a fresh election timer."""
        self.alive = True
        self.role = "follower"
        self.last_heartbeat = now
        self.timeout_ms = self._draw_timeout()


class RaftGroup:
    """One shard's replica group: shared log, leader, election machinery."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        stats: ClusterStats,
    ):
        self.env = env
        self.network = network
        self.name = name
        self.stats = stats
        self.members: List[RaftMember] = []
        self.log: List[LogEntry] = []
        self.commit_index = 0
        self.leader: Optional[RaftMember] = None
        # In-flight heartbeat guard: when the WAN round trip exceeds the
        # heartbeat tick, skip a follower instead of stacking transfers.
        self._inflight: set = set()
        self._campaigning: set = set()

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1

    def add_member(self, member: RaftMember) -> None:
        self.members.append(member)
        if self.leader is None:
            # The anchor member (main-site seat) starts as term-1 leader;
            # no startup election, so fault-free runs elect nothing.
            member.role = "leader"
            self.leader = member

    def live_leader(self) -> Optional[RaftMember]:
        leader = self.leader
        if leader is not None and leader.alive and leader.role == "leader":
            return leader
        return None

    def member_on(self, node_name: str) -> Optional[RaftMember]:
        for member in self.members:
            if member.node.name == node_name:
                return member
        return None

    # -- quorum commit (client write path) ------------------------------------
    def commit_batch(
        self, leader: RaftMember, batch: List[Tuple[str, Tuple[Any, ...]]]
    ) -> Generator[Event, Any, None]:
        """Append ``batch`` to the log and wait for a quorum of replicas.

        Called from the router after the client's transaction committed on
        the leader's database.  Raises ``NodeUnavailable`` when a majority
        cannot acknowledge within the replication deadline.
        """
        entry = LogEntry(leader.term, batch)
        self.log.append(entry)
        entry_index = len(self.log)
        leader.replicated_index = entry_index
        # The client already executed the batch on the leader's database
        # (connection.execute ran before this call), so the leader's copy
        # genuinely holds every entry appended during its reign.
        if leader.applied_index < entry_index:
            leader.applied_index = entry_index
        needed = self.quorum - 1  # leader's own copy counts
        if needed <= 0:
            self._mark_committed(entry, entry_index)
            return
        done = self.env.event()
        acks = [0]
        for member in self.members:
            if member is leader:
                continue
            self.env.process(
                self._replicate_one(
                    leader, member, entry, entry_index, acks, needed, done
                ),
                name=f"raft-replicate:{self.name}:{member.seat}",
            )
        outcome = yield self.env.any_of(
            [done, self.env.timeout(REPLICATION_TIMEOUT_MS)]
        )
        if 0 not in outcome:
            self.stats.replication_timeouts += 1
            raise NodeUnavailable(
                f"raft group {self.name}: no quorum within "
                f"{REPLICATION_TIMEOUT_MS:.0f} ms (term {leader.term})"
            )
        self._mark_committed(entry, entry_index)

    def _entry_live(self, entry: LogEntry, entry_index: int) -> bool:
        """Whether ``entry`` still sits at ``entry_index`` in the log.

        A leadership change truncates the uncommitted tail; in-flight
        replication for a truncated entry must not advance cursors or
        commit it.
        """
        return entry_index <= len(self.log) and self.log[entry_index - 1] is entry

    def _mark_committed(self, entry: LogEntry, entry_index: int) -> None:
        if not self._entry_live(entry, entry_index):
            raise NodeUnavailable(
                f"raft group {self.name}: leadership changed before the "
                f"entry could commit"
            )
        now = self.env.now
        for pending in self.log[self.commit_index:entry_index]:
            if pending.commit_time is None:
                pending.commit_time = now
        if entry_index > self.commit_index:
            self.commit_index = entry_index
        self.stats.quorum_commits += 1

    def _replicate_one(
        self,
        leader: RaftMember,
        member: RaftMember,
        entry: LogEntry,
        entry_index: int,
        acks: List[int],
        needed: int,
        done: Event,
    ) -> Generator[Event, Any, None]:
        """Ship one entry to one follower; count its ack toward the quorum."""
        try:
            if not member.alive:
                return
            yield from self.network.transfer(
                leader.node.name, member.node.name, entry.size, "raft-append"
            )
            if not member.alive or not self._entry_live(entry, entry_index):
                return
            if member.replicated_index == entry_index - 1:
                member.replicated_index = entry_index
            elif member.replicated_index < entry_index - 1:
                # Missing prefix: no ack — heartbeat catch-up will fill it.
                return
            yield from self.network.transfer(
                member.node.name, leader.node.name, ACK_SIZE, "raft-ack"
            )
            if not leader.alive or not self._entry_live(entry, entry_index):
                return
            self.stats.quorum_rtts += 1
            acks[0] += 1
            if acks[0] == needed:
                done.succeed()
        except (NetworkError, PacketLoss):
            return

    # -- heartbeat / catch-up --------------------------------------------------
    def tick(self) -> None:
        """One driver tick: leader heartbeats + follower election timers."""
        now = self.env.now
        leader = self.live_leader()
        for member in self.members:
            if not member.alive:
                continue
            if member is leader:
                for follower in self.members:
                    if follower is leader:
                        continue
                    key = (leader.seat, follower.seat)
                    if key in self._inflight:
                        continue
                    self._inflight.add(key)
                    self.env.process(
                        self._heartbeat_one(leader, follower, key),
                        name=f"raft-heartbeat:{self.name}:{follower.seat}",
                    )
            elif (
                member.role != "leader"
                and member not in self._campaigning
                and now - member.last_heartbeat >= member.timeout_ms
            ):
                self._campaigning.add(member)
                self.env.process(
                    self._campaign(member),
                    name=f"raft-campaign:{self.name}:{member.seat}",
                )

    def _heartbeat_one(
        self, leader: RaftMember, follower: RaftMember, key: tuple
    ) -> Generator[Event, Any, None]:
        try:
            self.stats.heartbeats_sent += 1
            yield from self.network.transfer(
                leader.node.name, follower.node.name, HEARTBEAT_SIZE, "raft-heartbeat"
            )
            if not follower.alive or not leader.alive:
                return
            if follower.term > leader.term:
                # A newer term exists: the stale leader steps down.
                leader.role = "follower"
                leader.term = follower.term
                leader.voted_for = None
                return
            follower.term = leader.term
            if follower.role == "candidate":
                follower.role = "follower"
            follower.last_heartbeat = self.env.now
            missing = leader.replicated_index - follower.replicated_index
            if missing > 0:
                entries = self.log[
                    follower.replicated_index:leader.replicated_index
                ]
                size = sum(entry.size for entry in entries)
                yield from self.network.transfer(
                    leader.node.name, follower.node.name, size, "raft-catchup"
                )
                if not follower.alive:
                    return
                follower.replicated_index = leader.replicated_index
                self.stats.catchup_entries += len(entries)
            target = min(self.commit_index, follower.replicated_index)
            if target > follower.applied_index and not follower.applying:
                # Apply in its own process: execution cost must not delay
                # the heartbeat ack, or the effective heartbeat interval
                # stretches past election timeouts under load.
                self.env.process(
                    self._apply(follower, target),
                    name=f"raft-apply:{self.name}:{follower.seat}",
                )
            yield from self.network.transfer(
                follower.node.name, leader.node.name, ACK_SIZE, "raft-ack"
            )
        except (NetworkError, PacketLoss):
            return
        finally:
            self._inflight.discard(key)

    def _apply(
        self, member: RaftMember, target: int
    ) -> Generator[Event, Any, None]:
        """Execute committed entries on a member's database copy.

        Guarded per member: heartbeats from two leaders during a
        leadership change must not apply the same entry twice.  The
        cursor advances entry by entry, so an interrupted pass leaves a
        consistent prefix for the next one to continue from.
        """
        if member.applying:
            return
        member.applying = True
        try:
            while member.alive and member.applied_index < min(target, len(self.log)):
                entry = self.log[member.applied_index]
                for sql, params in entry.batch:
                    try:
                        transaction = member.database.begin()
                        result = member.database.execute(
                            sql, params, transaction=transaction
                        )
                        transaction.commit()
                    except _APPLY_ERRORS:
                        # A divergent copy is better than a crashed kernel;
                        # surfaced through the counter, never silently.  A
                        # simulator bug is not a bad statement and propagates.
                        self.stats.apply_errors += 1
                        continue
                    yield from member.node.compute(
                        member.server.cost_model.execution_time(result, is_write=True)
                    )
                member.applied_index += 1
        finally:
            member.applying = False

    # -- elections -------------------------------------------------------------
    def _campaign(self, member: RaftMember) -> Generator[Event, Any, None]:
        """One election attempt: request votes from every peer in turn."""
        try:
            self.stats.elections_started += 1
            member.term += 1
            self.stats.term_changes += 1
            member.role = "candidate"
            member.voted_for = member.seat
            votes = 1
            for peer in self.members:
                if peer is member:
                    continue
                if not member.alive or member.role != "candidate":
                    return
                try:
                    yield from self.network.transfer(
                        member.node.name, peer.node.name,
                        VOTE_REQUEST_SIZE, "raft-vote",
                    )
                    if not peer.alive:
                        continue
                    if peer.term > member.term:
                        member.term = peer.term
                        member.role = "follower"
                        member.voted_for = None
                        return
                    # Log-completeness rule: never grant a vote to a
                    # candidate whose log is behind this peer's.
                    grant = member.replicated_index >= peer.replicated_index
                    if grant:
                        if peer.term < member.term:
                            peer.term = member.term
                            peer.voted_for = member.seat
                            if peer.role != "follower":
                                peer.role = "follower"
                        elif peer.voted_for in (None, member.seat):
                            peer.voted_for = member.seat
                        else:
                            grant = False
                    if grant:
                        peer.last_heartbeat = self.env.now  # granting resets the timer
                        votes += 1
                    yield from self.network.transfer(
                        peer.node.name, member.node.name,
                        VOTE_RESPONSE_SIZE, "raft-vote-ack",
                    )
                    if not member.alive:
                        return
                except (NetworkError, PacketLoss):
                    continue
                if votes >= self.quorum:
                    break
            if member.alive and member.role == "candidate" and votes >= self.quorum:
                # Accession: drop the uncommitted tail (its clients already
                # got NodeUnavailable), then apply any committed backlog to
                # this member's copy BEFORE serving — a leader's database
                # must hold every committed entry, or reads on it would
                # silently miss acknowledged writes.  Vote log-completeness
                # guarantees replicated_index >= commit_index here.
                if self.commit_index < len(self.log):
                    del self.log[self.commit_index:]
                    for other in self.members:
                        if other.replicated_index > len(self.log):
                            other.replicated_index = len(self.log)
                target = min(self.commit_index, member.replicated_index)
                if member.applied_index < target:
                    yield from self._apply(member, target)
                if member.alive and member.role == "candidate":
                    self._become_leader(member)
        finally:
            member.timeout_ms = member._draw_timeout()
            member.last_heartbeat = self.env.now
            self._campaigning.discard(member)

    def _become_leader(self, member: RaftMember) -> None:
        member.role = "leader"
        self.stats.elections_won += 1
        previous = self.leader
        if previous is not None and previous is not member:
            previous.role = "follower"
            self.stats.leader_failovers += 1
        self.leader = member
