"""Cluster-wide counters: one :class:`ClusterStats` per data-tier cluster.

Everything the experiments surface about the replicated/sharded tier —
elections, term changes, quorum round trips, cross-shard transactions,
stale reads and their measured staleness — accumulates here, then flows
through :meth:`ClusterStats.counters` and the ``cluster.staleness_ms``
gauge into the cell's metrics snapshot, which the availability table and
the time-series sampler read.  All zero under a policy without a
``data_tier`` block, in which case nothing is ever emitted (the
byte-identity contract for canned policies).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ClusterStats"]


class ClusterStats:
    """Counters for one data-tier cluster."""

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

    def counters(self) -> Dict[str, int]:
        """Cumulative counters, by metric name (``staleness_ms`` is a
        reading, not a count, and is left out)."""
        return {
            f"cluster.{name}": value
            for name, value in vars(self).items()
            if name != "staleness_ms"
        }
