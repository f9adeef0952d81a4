"""Response-time monitoring: the measurement store's whole-run section."""

import json

import pytest

from repro.obs.store import MeasurementStore, WholeRun


def _whole_run(store: MeasurementStore) -> WholeRun:
    return WholeRun(store.to_state()["whole_run"])


def test_monitor_groups_and_pages():
    store = MeasurementStore()
    store.observe(10.0, "local-browser", "Item", 50.0)
    store.observe(11.0, "remote-browser", "Item", 450.0)
    monitor = _whole_run(store)
    assert monitor.groups() == ["local-browser", "remote-browser"]
    assert monitor.pages("local-browser") == ["Item"]
    assert monitor.mean("remote-browser", "Item") == 450.0
    assert monitor.page_stats("remote-browser", "Item").count == 1


def test_monitor_warmup_discards_early_samples():
    store = MeasurementStore(warmup=100.0)
    store.observe(50.0, "g", "P", 999.0)
    store.observe(150.0, "g", "P", 10.0)
    monitor = _whole_run(store)
    assert monitor.mean("g", "P") == 10.0
    assert monitor.discarded_warmup == 1


def test_monitor_session_mean_spans_pages():
    store = MeasurementStore()
    store.observe(1.0, "g", "A", 10.0)
    store.observe(2.0, "g", "B", 30.0)
    assert _whole_run(store).session_mean("g") == pytest.approx(20.0)


def test_monitor_table_structure():
    store = MeasurementStore()
    store.observe(1.0, "g", "A", 10.0)
    assert _whole_run(store).table() == {"g": {"A": 10.0}}


# ---------------------------------------------------------------------------
# Serialization (the parallel runner's transport format)
# ---------------------------------------------------------------------------


def test_monitor_state_roundtrip_is_lossless():
    store = MeasurementStore(warmup=10.0)
    store.observe(5.0, "g", "P", 1.0)  # discarded by warm-up
    store.observe(20.0, "local-browser", "Item", 50.0)
    store.observe(21.0, "local-browser", "Item", 70.0)
    store.observe(22.0, "remote-browser", "Item", 450.0)
    state = store.to_state()["whole_run"]
    monitor = WholeRun(state)
    assert monitor.to_state() == state
    assert monitor.table() == {
        "local-browser": {"Item": 60.0},
        "remote-browser": {"Item": 450.0},
    }
    assert monitor.discarded_warmup == 1
    # Counts and sums are exact, added in observe order.
    assert monitor.page_stats("local-browser", "Item") == (2, 120.0)
    assert monitor.session_mean("remote-browser") == 450.0
    # A cell never observed reads as empty.
    assert monitor.page_stats("g", "missing") == (0, 0.0)
    assert monitor.page_stats("g", "missing").mean == 0.0


def test_monitor_state_is_json_safe():
    empty = json.loads(json.dumps(MeasurementStore().to_state()["whole_run"]))
    assert WholeRun(empty).groups() == []
    store = MeasurementStore()
    store.observe(1.0, "g", "P", 10.0)
    state = json.loads(json.dumps(store.to_state()["whole_run"]))
    assert WholeRun(state).mean("g", "P") == 10.0
