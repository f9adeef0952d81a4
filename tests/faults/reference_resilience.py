"""The parent commit's ``collect_resilience``, kept as an oracle.

``reference_resilience`` is the body of ``repro.faults.report.
collect_resilience`` as it stood while the availability report walked the
deployment a second time, beside the metrics walk; ``reference_resilience_
to_dict`` and ``reference_cluster_to_dict`` are the bodies of the
``ResilienceStats.to_dict`` and ``ClusterStats.to_dict`` it called.  All
three are copied literally — only the names changed, and the two
``to_dict`` calls became calls of the copies.
``test_availability_row.py`` demands ``availability_row``, which reads
the cell's metrics snapshot instead, return the same JSON.  Do not "tidy"
this file: its value is that it is the old code.
"""

from __future__ import annotations

from repro.obs.metrics import collect_cache_stats


def reference_resilience_to_dict(self) -> dict:
    """Canonical picklable snapshot (sorted keys, plain types)."""
    return {
        "rmi_retries": self.rmi_retries,
        "rmi_timeouts": self.rmi_timeouts,
        "jms_redeliveries": self.jms_redeliveries,
        "jms_dead_lettered": self.jms_dead_lettered,
        "sync_push_failures": self.sync_push_failures,
        "dropped_updates": self.dropped_updates,
        "pool_refusals": self.pool_refusals,
        "server_crashes": self.server_crashes,
        "staleness_ms": {
            name: round(self.staleness_ms[name], 6)
            for name in sorted(self.staleness_ms)
        },
    }


def reference_cluster_to_dict(self) -> dict:
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


def reference_resilience(system, generator=None) -> dict:
    """Snapshot the deployment's resilience counters (canonical dict).

    Always cheap and always collected — in a fault-free run every value
    is zero, which is itself evidence the run was clean.  Closes any
    still-open staleness windows at the current sim time first.
    """
    stats = system.resilience
    data: dict = {
        "requests": 0,
        "errors": 0,
        "failovers": 0,
    }
    if generator is not None:
        data["requests"] = generator.total_requests()
        data["errors"] = generator.errors
        data["failovers"] = generator.failovers
        # Dropped arrivals are a resilience fact of their own (always 0
        # on the closed loop, whose clients never drop).
        data["dropped_sessions"] = generator.dropped_sessions
    if stats is not None:
        stats.finalize(system.env.now)
        data.update(reference_resilience_to_dict(stats))
    cluster = system.cluster
    if cluster is not None:
        # Only present for data-tier policies, so every artifact of a
        # single-instance run stays byte-identical to pre-cluster output.
        data["cluster"] = reference_cluster_to_dict(cluster.stats)
    method_cache: dict = {}
    for counters in collect_cache_stats(system).get("method_cache", {}).values():
        for key, value in counters.items():
            if key == "staleness_max_ms":
                method_cache[key] = max(method_cache.get(key, 0.0), value)
            else:
                method_cache[key] = method_cache.get(key, 0) + value
    if method_cache:
        # Only present under level 6, same byte-identity discipline.
        data["method_cache"] = method_cache
    return data
