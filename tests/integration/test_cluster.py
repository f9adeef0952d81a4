"""The sharded + raft-replicated data tier, end to end.

Scaled-down versions of the acceptance runs: a 3-shard / 3-replica RUBiS
cell under ``db-leader-crash`` must re-elect and catch up; a partition
must make stale-local reads measurably stale; and all of it must be
byte-identical between ``--jobs 1`` and ``--jobs 4`` and invisible to
policies without a ``data_tier`` block.
"""

from pathlib import Path

import pytest

from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_configuration, run_series
from repro.faults.report import (
    availability_row,
    build_availability_table,
    render_availability_table,
)
from repro.faults.scenarios import scenario
from repro.obs.metrics import MetricsRegistry, collect_system_metrics
from repro.simnet.topology import TopologyOverrides

DURATION_MS = 30_000.0
WARMUP_MS = 6_000.0
WORKLOAD = default_workload(duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)
EDGES = TopologyOverrides(edges=3)
EDGE_NAMES = ("edge1", "edge2", "edge3")
POLICY_FILE = (
    Path(__file__).resolve().parents[2] / "policies" / "sharded-replicated.json"
)


def _crash_schedule():
    return scenario("db-leader-crash", DURATION_MS, WARMUP_MS, edges=EDGE_NAMES)


def _partition_schedule():
    return scenario("db-shard-partition", DURATION_MS, WARMUP_MS, edges=EDGE_NAMES)


def _row(result):
    return availability_row(result.measurements["metrics"])


def _cluster_counts(stats):
    """Every ClusterStats counter by name, staleness rounded as published."""
    return {**vars(stats), "staleness_ms": round(stats.staleness_ms, 6)}


@pytest.fixture(scope="module")
def sharded_policy():
    return load_policy(str(POLICY_FILE))


@pytest.fixture(scope="module")
def crash_run(sharded_policy):
    """One serial run under db-leader-crash, shared by several tests."""
    return run_configuration(
        "rubis",
        PatternLevel.STATEFUL_CACHING,
        workload=WORKLOAD,
        seed=31,
        policy=sharded_policy,
        topology=EDGES,
        faults=_crash_schedule(),
    )


@pytest.fixture(scope="module")
def partition_run(sharded_policy):
    return run_configuration(
        "rubis",
        PatternLevel.STATEFUL_CACHING,
        workload=WORKLOAD,
        seed=31,
        policy=sharded_policy,
        topology=EDGES,
        faults=_partition_schedule(),
    )


# ---------------------------------------------------------------------------
# The cluster exists, shards and replicates as declared
# ---------------------------------------------------------------------------


def test_cluster_matches_the_policy(crash_run, sharded_policy):
    cluster = crash_run.system.cluster
    assert cluster is not None
    tier = sharded_policy.data_tier
    assert len(cluster.groups) == tier.shard_count
    for group in cluster.groups:
        assert len(group.members) == tier.replication_factor
        # Every group finished the run with a live leader.
        assert group.leader is not None and group.leader.alive


def test_sharding_actually_partitions_the_rows(crash_run):
    """Each sharded table's rows are split, not copied; global tables are
    copied in full to every member."""
    cluster = crash_run.system.cluster
    for table in ("items", "bids", "comments"):
        per_shard = []
        for group in cluster.groups:
            counts = {
                sum(1 for _ in member.database.table(table).scan())
                for member in group.members
                if member.applied_index >= group.commit_index
            }
            assert len(counts) == 1, f"caught-up replicas of {table} diverge"
            per_shard.append(counts.pop())
        assert sum(per_shard) > 0
        assert all(count < sum(per_shard) for count in per_shard)


# ---------------------------------------------------------------------------
# Leader crash: election, failover, catch-up
# ---------------------------------------------------------------------------


def test_leader_crash_forces_reelection_and_catchup(crash_run):
    stats = crash_run.system.cluster.stats
    assert stats.elections_won >= 1
    assert stats.quorum_commits > 0
    # The restarted main-seat members replay what they missed.
    assert stats.catchup_entries >= 1
    # Replicated state machines never diverge: every applied entry
    # executed cleanly on every member.
    assert stats.apply_errors == 0


def test_cluster_counters_reach_the_resilience_snapshot(crash_run):
    snapshot = _row(crash_run)
    assert "cluster" in snapshot
    assert snapshot["cluster"] == _cluster_counts(crash_run.system.cluster.stats)


def test_cluster_counters_reach_metrics_and_tables(crash_run):
    registry = MetricsRegistry()
    collect_system_metrics(registry, crash_run.system, generator=crash_run.generator)
    state = registry.to_state()
    assert state["counters"]["cluster.elections_won"] >= 1
    assert state["gauges"]["cluster.shards"] == 3.0
    assert state["gauges"]["cluster.replication_factor"] == 3.0

    table = build_availability_table(
        "rubis",
        {PatternLevel.STATEFUL_CACHING: crash_run},
        scenario="db-leader-crash",
    )
    rendered = render_availability_table(table)
    assert "data tier:" in rendered
    assert "elections=" in rendered


# ---------------------------------------------------------------------------
# Read modes: stale-local staleness is real
# ---------------------------------------------------------------------------


def test_partition_makes_stale_local_reads_stale(partition_run):
    stats = partition_run.system.cluster.stats
    assert stats.reads_stale_local > 0
    assert stats.stale_reads_served > 0
    assert stats.staleness_ms > 0.0


# ---------------------------------------------------------------------------
# Determinism and the legacy byte-identity contract
# ---------------------------------------------------------------------------


def test_cluster_run_identical_serial_vs_four_workers(sharded_policy, crash_run):
    parallel = run_series(
        "rubis",
        workload=WORKLOAD,
        seed=31,
        jobs=4,
        policy=sharded_policy,
        topology=EDGES,
        faults=_crash_schedule(),
    )
    level = sharded_policy.effective_level()
    assert crash_run.monitor.to_state() == parallel[level].measurements["whole_run"]
    assert _row(crash_run) == _row(parallel[level])
    # The cluster counters themselves — elections, staleness and all —
    # are part of the byte-identity bar.
    assert (
        _cluster_counts(crash_run.system.cluster.stats)
        == _row(parallel[level])["cluster"]
    )


def test_policy_without_data_tier_builds_no_cluster():
    result = run_configuration(
        "rubis",
        PatternLevel.STATEFUL_CACHING,
        workload=default_workload(duration_ms=15_000.0, warmup_ms=3_000.0),
        seed=31,
    )
    assert result.system.cluster is None
    assert "cluster" not in _row(result)
    registry = MetricsRegistry()
    collect_system_metrics(registry, result.system, generator=result.generator)
    assert not any(
        name.startswith("cluster.") for name in registry.to_state()["counters"]
    )
