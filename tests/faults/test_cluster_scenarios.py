"""Scenario builders derive edges from the effective topology, and the
data-tier scenarios (``db-leader-crash``, ``db-shard-partition``) are
registered and shaped as documented."""

import pytest

from repro.faults import scenarios
from repro.faults.scenarios import default_edges, scenario
from repro.simnet.kernel import Environment
from repro.simnet.topology import TestbedConfig, build_testbed

DURATION, WARMUP = 60_000.0, 10_000.0


# ---------------------------------------------------------------------------
# default_edges follows the topology instead of hard-coding the paper's two
# ---------------------------------------------------------------------------


def test_default_edges_matches_the_paper_testbed():
    config = TestbedConfig()
    derived = default_edges()
    assert derived == tuple(f"edge{i + 1}" for i in range(config.edge_servers))
    assert derived == ("edge1", "edge2")


def test_default_edges_follows_an_overridden_topology():
    config = TestbedConfig(edge_servers=5)
    assert default_edges(config) == ("edge1", "edge2", "edge3", "edge4", "edge5")


@pytest.mark.parametrize("edges", [1, 2, 5])
def test_default_edges_are_the_built_testbeds_edges(edges):
    config = TestbedConfig(edge_servers=edges)
    built = build_testbed(Environment(), config)
    assert default_edges(config) == tuple(built.edge_servers)


def test_builders_accept_edges_none():
    schedule = scenario("flaky-wan", DURATION, WARMUP, edges=None)
    assert {w.b for w in schedule.loss_windows} == set(default_edges())


# ---------------------------------------------------------------------------
# The data-tier scenarios
# ---------------------------------------------------------------------------


def test_cluster_scenarios_are_registered():
    assert "db-leader-crash" in scenarios.SCENARIOS
    assert "db-shard-partition" in scenarios.SCENARIOS


def test_db_leader_crash_targets_the_main_seat():
    schedule = scenario("db-leader-crash", DURATION, WARMUP)
    assert len(schedule.crashes) == 1
    crash = schedule.crashes[0]
    assert crash.server == "db"
    # Mid-run, inside the measured window.
    assert WARMUP < crash.start < crash.end <= DURATION


def test_db_shard_partition_targets_the_last_edge():
    schedule = scenario(
        "db-shard-partition", DURATION, WARMUP, edges=("edge1", "edge2", "edge3")
    )
    assert len(schedule.partitions) == 1
    partition = schedule.partitions[0]
    assert partition.a == "router"
    assert partition.b == "edge3"


def test_db_shard_partition_follows_default_edges():
    schedule = scenario("db-shard-partition", DURATION, WARMUP)
    assert schedule.partitions[0].b == default_edges()[-1]


def test_db_shard_partition_rejects_an_empty_edge_list():
    with pytest.raises(ValueError):
        scenario("db-shard-partition", DURATION, WARMUP, edges=())


def test_db_leader_crash_ignores_the_edge_list():
    # The crash targets the main database seat, not an edge, so it works
    # even on a (hypothetical) edgeless testbed.
    schedule = scenario("db-leader-crash", DURATION, WARMUP, edges=())
    assert schedule.crashes[0].server == "db"
