"""Unit tests for fault schedules: validation, JSON/pickle round trips,
and the canned scenario catalogue."""

import pickle

import pytest

from repro.faults.scenarios import SCENARIOS, load_schedule, scenario
from repro.faults.schedule import (
    FaultSchedule,
    LatencySpike,
    LinkPartition,
    LossWindow,
    ServerCrash,
)


def _full_schedule() -> FaultSchedule:
    return FaultSchedule(
        name="everything",
        partitions=(LinkPartition("router", "edge1", 100.0, 200.0),),
        latency_spikes=(
            LatencySpike("router", "edge2", 50.0, 150.0, extra_ms=30.0, jitter_ms=10.0),
        ),
        loss_windows=(LossWindow("router", "edge1", 10.0, 20.0, probability=0.05),),
        crashes=(ServerCrash("edge1", 300.0, 400.0),),
    )


# ---------------------------------------------------------------------------
# Value-object behaviour
# ---------------------------------------------------------------------------


def test_default_schedule_is_empty():
    schedule = FaultSchedule()
    assert schedule.empty
    assert schedule.name == "empty"
    assert schedule.validate() is schedule


def test_any_fault_makes_schedule_non_empty():
    assert not _full_schedule().empty
    assert not FaultSchedule(crashes=(ServerCrash("edge1", 1.0, 2.0),)).empty


def test_json_round_trip_preserves_everything():
    schedule = _full_schedule()
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_pickle_round_trip():
    schedule = _full_schedule()
    assert pickle.loads(pickle.dumps(schedule)) == schedule


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault-schedule keys"):
        FaultSchedule.from_json({"name": "x", "earthquakes": []})


def test_from_json_defaults_name_to_custom():
    assert FaultSchedule.from_json({}).name == "custom"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_INF = float("inf")
_NAN = float("nan")


@pytest.mark.parametrize(
    "bad",
    [
        LinkPartition("a", "b", 10.0, 10.0),  # empty window
        LinkPartition("a", "b", 10.0, 5.0),  # end before start
        LinkPartition("a", "b", -1.0, 5.0),  # negative start
        LossWindow("a", "b", 0.0, 1.0, probability=0.0),
        LossWindow("a", "b", 0.0, 1.0, probability=1.5),
        LatencySpike("a", "b", 0.0, 1.0, extra_ms=0.0, jitter_ms=0.0),
        LatencySpike("a", "b", 0.0, 1.0, extra_ms=-1.0),
        ServerCrash("edge1", 5.0, 5.0),
        # Not finite: the injector sleeps ``end - start`` and a link adds
        # ``extra_ms``, so the run would park a wake time it never reaches.
        LinkPartition("a", "b", 10.0, _INF),
        LinkPartition("a", "b", _NAN, 5.0),
        LossWindow("a", "b", 0.0, _NAN, probability=0.5),
        LatencySpike("a", "b", 0.0, 1.0, extra_ms=_INF),
        LatencySpike("a", "b", 0.0, 1.0, extra_ms=1.0, jitter_ms=_NAN),
        ServerCrash("edge1", 5.0, _INF),
    ],
)
def test_validate_rejects_malformed_faults(bad):
    with pytest.raises(ValueError):
        bad.validate()


def test_load_schedule_rejects_a_json_infinity(tmp_path):
    import json

    plan = _full_schedule().to_json()
    plan["partitions"][0]["end"] = _INF
    path = tmp_path / "forever.json"
    path.write_text(json.dumps(plan))  # written as the JSON token Infinity
    assert "Infinity" in path.read_text()
    with pytest.raises(ValueError, match="finite"):
        load_schedule(str(path), 100_000.0)


def test_schedule_validate_checks_every_fault():
    schedule = FaultSchedule(partitions=(LinkPartition("a", "b", 5.0, 1.0),))
    with pytest.raises(ValueError):
        schedule.validate()


# ---------------------------------------------------------------------------
# Canned scenarios
# ---------------------------------------------------------------------------


def test_canned_catalogue_names():
    assert set(SCENARIOS) == {
        "edge-partition",
        "edge-crash",
        "flaky-wan",
        "latency-spike",
        "db-leader-crash",
        "db-shard-partition",
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_canned_scenarios_fit_the_measured_window(name):
    duration, warmup = 600_000.0, 60_000.0
    schedule = scenario(name, duration, warmup)
    assert schedule.name == name
    assert not schedule.empty
    schedule.validate()
    for fault in (
        *schedule.partitions,
        *schedule.latency_spikes,
        *schedule.loss_windows,
        *schedule.crashes,
    ):
        assert warmup <= fault.start < fault.end <= duration


def test_scenarios_scale_with_duration():
    short = scenario("edge-partition", 40_000.0, 10_000.0).partitions[0]
    long = scenario("edge-partition", 1_200_000.0, 120_000.0).partitions[0]
    assert short.end <= 40_000.0
    assert long.end - long.start > 10 * (short.end - short.start)


def test_unknown_scenario_name_raises():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        scenario("meteor-strike", 1000.0)


# ---------------------------------------------------------------------------
# --faults argument resolution
# ---------------------------------------------------------------------------


def test_load_schedule_resolves_canned_names():
    schedule = load_schedule("edge-crash", 100_000.0, 10_000.0)
    assert schedule.name == "edge-crash"
    assert schedule.crashes


def test_load_schedule_reads_json_files(tmp_path):
    import json

    path = tmp_path / "my-faults.json"
    path.write_text(json.dumps(_full_schedule().to_json()))
    assert load_schedule(str(path), 100_000.0) == _full_schedule()


def test_load_schedule_unknown_name_is_an_error():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        load_schedule("not-a-scenario", 100_000.0)
