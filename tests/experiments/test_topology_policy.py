"""Tests for generalized topologies and explicit placement policies.

The refactor's contract: an experiment cell is (application, policy,
topology), with pattern levels surviving only as canned policies.  These
tests pin the new degrees of freedom — arbitrary edge counts, custom
policy files, topology knobs — and the determinism bar they must clear
(serial vs. worker-pool byte-identity, exactly as for the canned grid).
"""

import pickle
from pathlib import Path

import pytest

from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.experiments import calibration
from repro.experiments.__main__ import main
from repro.experiments.parallel import run_cells
from repro.experiments.runner import RunSpec, run_configuration, run_series
from repro.experiments.tables import build_table, render_table, table_to_csv
from repro.faults import scenarios
from repro.faults.report import (
    availability_to_json,
    build_availability_table,
    render_availability_table,
)
from repro.simnet.topology import TopologyOverrides

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
POLICY_FILE = Path(__file__).resolve().parents[2] / "policies" / "replicas-one-edge.json"


@pytest.fixture(scope="module")
def custom_policy():
    return load_policy(str(POLICY_FILE))


@pytest.fixture(scope="module")
def policy_serial(custom_policy):
    return run_series("petstore", workload=FAST, seed=21, jobs=1, policy=custom_policy)


# ---------------------------------------------------------------------------
# Topology overrides: any edge count, WAN knobs, recorded in results
# ---------------------------------------------------------------------------


def test_topology_overrides_empty_and_apply():
    assert TopologyOverrides().empty
    overrides = TopologyOverrides(edges=4, wan_latency=250.0)
    assert not overrides.empty
    config = calibration.petstore_testbed_config()
    patched = overrides.apply(config)
    assert patched.edge_servers == 4
    assert patched.wan_latency == 250.0
    assert patched.clients_per_group == config.clients_per_group


@pytest.mark.parametrize(
    "fields",
    [
        {"edges": 0},
        {"clients_per_group": -1},
        {"wan_latency": -5.0},
        {"wan_latency": float("inf")},
        {"wan_latency": float("nan")},
    ],
)
def test_topology_overrides_reject_a_testbed_that_cannot_be_built(fields):
    """The library and the plan target get the CLI's checks."""
    (name,) = fields
    with pytest.raises(ValueError, match=f"^{name} must be"):
        TopologyOverrides(**fields)


@pytest.mark.parametrize("edges", [1, 4])
def test_smoke_run_at_nondefault_edge_count(edges):
    result = run_configuration(
        "petstore",
        PatternLevel.REMOTE_FACADE,
        workload=FAST,
        seed=21,
        topology=TopologyOverrides(edges=edges),
    )
    assert result.topology["edge_servers"] == edges
    assert len(result.system.edges) == edges
    assert result.generator.total_requests() > 0
    # Every client node resolves an entry server on the actual testbed.
    names = {server.name for server in result.system.edges} | {
        result.system.main.name
    }
    for client in result.generator.clients:
        assert result.system.entry_server_for(client.machine).name in names


def test_default_topology_recorded_on_result():
    result = run_configuration(
        "petstore", PatternLevel.CENTRALIZED, workload=FAST, seed=21
    )
    config = calibration.petstore_testbed_config()
    assert result.topology == {
        "edge_servers": config.edge_servers,
        "wan_latency_ms": config.wan_latency,
        "clients_per_group": config.clients_per_group,
    }
    assert result.label is None


def test_topology_threads_through_worker_pool():
    overrides = TopologyOverrides(edges=1)
    results = run_cells(
        [("petstore", PatternLevel.CENTRALIZED), ("petstore", PatternLevel.REMOTE_FACADE)],
        workload=FAST,
        seed=21,
        jobs=2,
        topology=overrides,
    )
    for result in results.values():
        assert result.topology["edge_servers"] == 1


# ---------------------------------------------------------------------------
# Custom policies: labelled results, serial-vs-pool byte-identity
# ---------------------------------------------------------------------------


def test_policy_series_is_labelled(policy_serial, custom_policy):
    level = custom_policy.effective_level()
    assert list(policy_serial) == [level]
    result = policy_serial[level]
    assert result.label == "replicas-one-edge"
    assert result.topology is not None


def test_policy_serial_vs_pool_byte_identical(policy_serial, custom_policy):
    parallel = run_series(
        "petstore", workload=FAST, seed=21, jobs=2, policy=custom_policy
    )
    serial_table = build_table(policy_serial)
    parallel_table = build_table(parallel)
    assert render_table(serial_table) == render_table(parallel_table)
    assert table_to_csv(serial_table) == table_to_csv(parallel_table)


def test_policy_label_reaches_rendered_table(policy_serial):
    table = build_table(policy_serial)
    rendered = render_table(table)
    assert "replicas-one-edge" in rendered


def test_policy_label_and_topology_reach_availability_artifact(policy_serial):
    table = build_availability_table("petstore", policy_serial, scenario="none")
    assert "replicas-one-edge" in render_availability_table(table)
    payload = availability_to_json([table])
    assert '"labels"' in payload
    assert '"topology"' in payload


def test_run_spec_pickles_with_policy_and_topology(custom_policy):
    spec = RunSpec(
        workload=FAST,
        seed=21,
        policy=custom_policy,
        topology=TopologyOverrides(edges=3, wan_latency=80.0),
    )
    task = ("petstore", custom_policy.effective_level(), spec)
    copy = pickle.loads(pickle.dumps(task))
    assert copy == task
    assert copy[2].policy.to_json() == custom_policy.to_json()
    assert copy[2].topology.edges == 3


# ---------------------------------------------------------------------------
# Fault scenarios follow the testbed's actual edge servers
# ---------------------------------------------------------------------------


def test_scenarios_default_to_paper_edges():
    schedule = scenarios.scenario("edge-partition", 60_000.0, 10_000.0)
    assert schedule.partitions[0].b == "edge1"


def test_scenarios_target_first_actual_edge():
    schedule = scenarios.scenario(
        "edge-crash", 60_000.0, 10_000.0, edges=("edgeA", "edgeB", "edgeC")
    )
    assert schedule.crashes[0].server == "edgeA"


def test_flaky_wan_covers_every_edge():
    edges = tuple(f"edge{i}" for i in range(1, 5))
    schedule = scenarios.scenario("flaky-wan", 60_000.0, 10_000.0, edges=edges)
    assert {window.b for window in schedule.loss_windows} == set(edges)


def test_single_edge_testbed_is_supported():
    schedule = scenarios.scenario(
        "edge-partition", 60_000.0, 10_000.0, edges=("edge1",)
    )
    assert schedule.partitions[0].b == "edge1"


def test_scenarios_reject_empty_edge_list():
    with pytest.raises(ValueError):
        scenarios.scenario("edge-crash", 60_000.0, 10_000.0, edges=())


# ---------------------------------------------------------------------------
# The `plan` target: resolve and print without simulating
# ---------------------------------------------------------------------------


def test_plan_target_canned_level(capsys):
    code = main(["plan", "--app", "petstore", "--level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "== petstore · policy 'level-3' ==" in out
    assert "resolved policy:" in out
    assert "PASS" in out


def test_plan_target_policy_file(capsys):
    code = main(
        [
            "plan",
            "--app",
            "petstore",
            "--policy",
            str(POLICY_FILE),
            "--edges",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "policy 'replicas-one-edge'" in out
    assert "PASS" in out


def test_plan_target_policy_requires_app(capsys):
    code = main(["plan", "--policy", str(POLICY_FILE)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--app" in captured.err


def test_cli_rejects_nonpositive_edges(capsys):
    code = main(["plan", "--app", "petstore", "--level", "1", "--edges", "0"])
    assert code == 2


@pytest.mark.parametrize("clients", ["0", "-1"])
def test_cli_rejects_fewer_than_one_client_per_group(clients, capsys, monkeypatch):
    """Zero clients per group used to divide by zero building the load."""

    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    code = main(
        ["table7", "--level", "1", "--duration", "5", "--warmup", "1",
         "--jobs", "1", f"--clients-per-group={clients}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "[topology] --clients-per-group must be >= 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("latency", ["inf", "nan", "-5"])
def test_cli_rejects_a_wan_latency_that_is_not_finite_and_non_negative(
    latency, capsys, monkeypatch
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    code = main(
        ["table7", "--level", "1", "--duration", "5", "--warmup", "1",
         "--jobs", "1", f"--wan-latency={latency}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "[topology] --wan-latency" in captured.err
    assert captured.out == ""
