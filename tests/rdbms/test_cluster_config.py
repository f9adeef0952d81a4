"""The ``data_tier`` policy block: validation, JSON round trips, and the
absent-by-default contract (a policy without the block serializes exactly
as before, so canned policies stay byte-identical)."""

import json
from pathlib import Path

import pytest

from repro.core.policy import PlacementPolicy, load_policy
from repro.experiments.__main__ import main
from repro.rdbms.cluster import DataTierError, DataTierPolicy

POLICY_DIR = Path(__file__).resolve().parents[2] / "policies"


def _tier(**overrides):
    base = dict(
        shard_count=3,
        shard_tables=(("bids", "item_id"), ("items", "id")),
        global_tables=("regions",),
        replication_factor=3,
        read_mode="stale-local",
    )
    base.update(overrides)
    return DataTierPolicy(**base)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_defaults_are_the_degenerate_single_instance():
    tier = DataTierPolicy()
    assert tier.shard_count == 1
    assert not tier.replicated
    assert tier.validation_errors() == []


def test_shard_key_lookup():
    tier = _tier()
    assert tier.shard_key("items") == "id"
    assert tier.shard_key("bids") == "item_id"
    assert tier.shard_key("regions") is None
    assert tier.shard_key("never_heard_of_it") is None


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(shard_count=0), "shard count"),
        (dict(replication_factor=0), "replication factor"),
        (dict(read_mode="eventual"), "read_mode"),
        (dict(shard_tables=(), shard_count=2), "no tables declare"),
        (dict(global_tables=("items",)), "both sharded and global"),
    ],
    ids=[
        "shard-count",
        "replication-factor",
        "read-mode",
        "no-sharded-tables",
        "sharded-and-global",
    ],
)
def test_contradictions_are_reported(overrides, fragment):
    errors = _tier(**overrides).validation_errors()
    assert any(fragment in error for error in errors), errors


def test_replication_factor_bounded_by_seat_count():
    tier = _tier(replication_factor=5)
    assert tier.validation_errors(seat_count=5) == []
    errors = tier.validation_errors(seat_count=3)
    assert any("seat" in error for error in errors)
    with pytest.raises(DataTierError):
        tier.validate(seat_count=3)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_tier_json_round_trip():
    tier = _tier()
    assert DataTierPolicy.from_json(tier.to_json()) == tier
    single = DataTierPolicy()
    assert DataTierPolicy.from_json(single.to_json()) == single


def test_tier_json_omits_defaults():
    payload = DataTierPolicy().to_json()
    assert payload == {
        "shards": {"count": 1},
        "replication": {"factor": 1, "read_mode": "leader"},
    }


def test_tier_json_rejects_unknown_keys():
    with pytest.raises(DataTierError):
        DataTierPolicy.from_json({"shards": {"count": 2}, "repl": {}})
    with pytest.raises(DataTierError):
        DataTierPolicy.from_json({"shards": {"count": 2, "via": "x"}})


def test_policy_without_data_tier_serializes_as_before():
    """The byte-identity contract: no block, no key, no difference."""
    policy = PlacementPolicy(name="plain", level=3)
    assert "data_tier" not in policy.to_json()
    assert PlacementPolicy.from_json(policy.to_json()).data_tier is None


def test_policy_with_data_tier_round_trips():
    policy = PlacementPolicy(name="clustered", level=3, data_tier=_tier())
    copy = PlacementPolicy.from_json(json.loads(policy.to_json_str()))
    assert copy.data_tier == policy.data_tier


def test_shipped_sharded_policy_loads_and_validates():
    policy = load_policy(str(POLICY_DIR / "sharded-replicated.json"))
    tier = policy.data_tier
    assert tier is not None
    assert tier.shard_count > 1 and tier.replicated
    assert tier.shard_count == 3
    assert tier.replication_factor == 3
    assert tier.read_mode == "stale-local"
    assert tier.shard_key("items") == "id"
    # 3 replicas fit the paper's testbed (main seat + two edges).
    assert tier.validation_errors(seat_count=3) == []


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("shards", "strategy", "hash", "'strategy'"),
        ("shards", "range_splits", [100, 200], "'range_splits'"),
        ("replication", "heartbeat_ms", 50.0, "'heartbeat_ms'"),
        ("replication", "election_timeout_ms", [500.0, 900.0], "'election_timeout_ms'"),
        ("replication", "read_mode", "quorum", "'quorum'"),
    ],
    ids=["strategy", "range_splits", "heartbeat_ms", "election_timeout_ms", "quorum"],
)
def test_cli_rejects_a_policy_naming_a_removed_setting(
    section, key, value, named, tmp_path, capsys
):
    """Range sharding, the raft timing keys and quorum reads are gone: a
    policy file that still names one fails before anything is planned."""
    policy = json.loads((POLICY_DIR / "sharded-replicated.json").read_text())
    policy["data_tier"][section][key] = value
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    code = main(["plan", "--app", "rubis", "--policy", str(path), "--edges", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("[policy] ")
    assert named in captured.err
