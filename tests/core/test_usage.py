"""Unit tests for service usage patterns (§3.2)."""

import pytest

from repro.core.usage import PageVisit, PatternError, ScriptedPattern, WeightedPattern
from repro.simnet.rng import Streams


def _weighted(**overrides):
    defaults = dict(
        name="browser",
        length=20,
        weights={"Main": 1.0, "List": 3.0, "Detail": 6.0},
        first_page="Main",
    )
    defaults.update(overrides)
    return WeightedPattern(**defaults)


def test_session_has_requested_length():
    pattern = _weighted()
    visits = pattern.session(Streams(1), 0)
    assert len(visits) == 20


def test_session_starts_at_first_page():
    pattern = _weighted()
    visits = pattern.session(Streams(1), 0)
    assert visits[0].page == "Main"


def test_weights_respected_in_aggregate():
    pattern = _weighted(length=400)
    streams = Streams(7)
    counts = {"Main": 0, "List": 0, "Detail": 0}
    for session_index in range(25):
        for visit in pattern.session(streams, session_index):
            counts[visit.page] += 1
    total = sum(counts.values())
    assert counts["Detail"] / total == pytest.approx(0.6, abs=0.06)
    assert counts["List"] / total == pytest.approx(0.3, abs=0.06)


def test_follows_inserts_prerequisite():
    pattern = _weighted(
        length=200, follows={"Detail": "List"}
    )
    visits = pattern.session(Streams(3), 0)
    for index, visit in enumerate(visits):
        if visit.page == "Detail":
            assert index > 0 and visits[index - 1].page == "List"


def test_params_for_sees_previous_visit():
    seen = []

    def params_for(streams, page, previous):
        seen.append((page, previous.page if previous else None))
        return {"p": page}

    pattern = _weighted(length=5, params_for=params_for)
    visits = pattern.session(Streams(2), 0)
    assert all(visit.params == {"p": visit.page} for visit in visits)
    assert seen[0] == ("Main", None)


def test_sessions_are_deterministic_per_seed():
    a = _weighted().session(Streams(42), 0)
    b = _weighted().session(Streams(42), 0)
    assert [v.page for v in a] == [v.page for v in b]


def test_weighted_rejects_bad_inputs():
    with pytest.raises(PatternError):
        _weighted(length=0)
    with pytest.raises(PatternError):
        _weighted(weights={})
    with pytest.raises(PatternError):
        _weighted(weights={"Main": -1.0})


def test_scripted_pattern_replays_script():
    pattern = ScriptedPattern("buyer", ["A", "B", "C"])
    visits = pattern.session(Streams(1), 0)
    assert [v.page for v in visits] == ["A", "B", "C"]
    assert pattern.length == 3


def test_scripted_pattern_params_by_index():
    pattern = ScriptedPattern(
        "buyer", ["A", "B"], params_for=lambda s, page, i: {"i": i}
    )
    visits = pattern.session(Streams(1), 0)
    assert [v.params["i"] for v in visits] == [0, 1]


def test_scripted_rejects_empty_script():
    with pytest.raises(PatternError):
        ScriptedPattern("x", [])


def test_page_visit_keeps_params_as_one_flat_tuple():
    visit = PageVisit("Category & Region", {"category_id": 3, "region_id": 7})
    assert visit.kv == ("category_id", 3, "region_id", 7)
    assert visit.params == {"category_id": 3, "region_id": 7}
    assert not hasattr(visit, "__dict__")
    # A page without parameters shares the one empty tuple.
    assert PageVisit("Main").kv is PageVisit("Browse", {}).kv is ()
    assert PageVisit("Main").params == {}


def test_page_visits_compare_by_page_and_params():
    assert PageVisit("Item", {"item_id": 1}) == PageVisit("Item", {"item_id": 1})
    assert PageVisit("Item", {"item_id": 1}) != PageVisit("Item", {"item_id": 2})
    assert PageVisit("Item", {"item_id": 1}) != PageVisit("Bids", {"item_id": 1})
    assert repr(PageVisit("Item", {"item_id": 1})) == (
        "PageVisit(page='Item', params={'item_id': 1})"
    )
