"""Cluster-wide counters: one :class:`ClusterStats` per data-tier cluster.

Everything the experiments surface about the replicated/sharded tier —
elections, term changes, quorum round trips, cross-shard transactions,
stale reads and their measured staleness — accumulates here, then flows
into ``collect_resilience`` (availability tables), ``repro.obs`` metrics
and the time-series sampler.  All zero under a policy without a
``data_tier`` block, in which case nothing is ever emitted (the
byte-identity contract for canned policies).
"""

from __future__ import annotations

__all__ = ["ClusterStats"]


class ClusterStats:
    """Counters for one data-tier cluster (canonical, picklable snapshot)."""

    def __init__(self):
        # Raft: elections and leadership.
        self.elections_started = 0
        self.elections_won = 0
        self.term_changes = 0
        self.leader_failovers = 0  # elections won by a different member
        # Raft: log replication.
        self.heartbeats_sent = 0
        self.catchup_entries = 0
        self.apply_errors = 0
        self.quorum_commits = 0
        self.quorum_rtts = 0
        self.replication_timeouts = 0
        # Routing: statement classification.
        self.single_shard_statements = 0
        self.scatter_gather_queries = 0
        self.broadcast_writes = 0
        self.cross_shard_txns = 0
        self.two_phase_commits = 0
        self.router_failovers = 0  # statements retried onto a new leader
        # Reads by mode, and the measured staleness of stale-local reads.
        self.reads_leader = 0
        self.reads_stale_local = 0
        self.stale_reads_served = 0  # stale-local reads that missed >= 1 commit
        self.staleness_ms = 0.0  # summed age of the oldest missed commit

    def to_dict(self) -> dict:
        """Canonical snapshot: sorted keys, plain types."""
        return {
            "apply_errors": self.apply_errors,
            "broadcast_writes": self.broadcast_writes,
            "catchup_entries": self.catchup_entries,
            "cross_shard_txns": self.cross_shard_txns,
            "elections_started": self.elections_started,
            "elections_won": self.elections_won,
            "heartbeats_sent": self.heartbeats_sent,
            "leader_failovers": self.leader_failovers,
            "quorum_commits": self.quorum_commits,
            "quorum_rtts": self.quorum_rtts,
            "reads_leader": self.reads_leader,
            "reads_stale_local": self.reads_stale_local,
            "replication_timeouts": self.replication_timeouts,
            "router_failovers": self.router_failovers,
            "scatter_gather_queries": self.scatter_gather_queries,
            "single_shard_statements": self.single_shard_statements,
            "stale_reads_served": self.stale_reads_served,
            "staleness_ms": round(self.staleness_ms, 6),
            "term_changes": self.term_changes,
            "two_phase_commits": self.two_phase_commits,
        }
