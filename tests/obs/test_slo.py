"""SLO objectives: parsing, burn-rate arithmetic, fault-overlay recovery.

The burn rate must follow the standard error-budget formulation — the
window's bad fraction over the objective's budget — and recovery time
must be the simulated gap from fault end to the first compliant window,
because the acceptance tests read those numbers as ground truth.
"""

import json

import pytest

from repro.obs.export import canonical_json
from repro.obs.slo import (
    SloError,
    evaluate_slo,
    load_slo,
    parse_objectives,
    render_slo_report,
    validate_slo,
)
from repro.obs.store import MeasurementStore

P95 = {"name": "p95", "metric": "p95", "page": None, "max_ms": 100}
AVAIL = {"name": "avail", "metric": "availability", "target": 0.9}


# -- parsing ------------------------------------------------------------------


def test_parse_accepts_both_metric_kinds():
    parsed = parse_objectives({"objectives": [P95, AVAIL]})
    assert parsed[0]["quantile"] == pytest.approx(0.95)
    assert parsed[0]["max_ms"] == 100.0
    assert parsed[1]["target"] == 0.9


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"objectives": []},
        {"objectives": [{"metric": "p95", "max_ms": 10}]},  # no name
        {"objectives": [P95, P95]},  # duplicate name
        {"objectives": [{"name": "a", "metric": "availability", "target": 1.0}]},
        {"objectives": [{"name": "a", "metric": "availability", "target": 0.0}]},
        {"objectives": [{"name": "a", "metric": "p0", "max_ms": 10}]},
        {"objectives": [{"name": "a", "metric": "pxx", "max_ms": 10}]},
        {"objectives": [{"name": "a", "metric": "latency", "max_ms": 10}]},
        {"objectives": [{"name": "a", "metric": "p95", "max_ms": 0}]},
        {"objectives": [{"name": "a", "metric": "p95", "max_ms": 10, "page": 3}]},
    ],
)
def test_parse_rejects_malformed_objectives(data):
    with pytest.raises(SloError):
        parse_objectives(data)


def test_load_slo_reads_a_file(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"objectives": [AVAIL]}))
    assert load_slo(str(path))[0]["name"] == "avail"


def test_default_policy_file_parses():
    assert len(load_slo("policies/slo-default.json")) == 2


# -- evaluation ---------------------------------------------------------------


def _series_state(*extra) -> dict:
    """Two windows: one compliant, one with a latency spike and errors.

    ``extra`` is more ``(now, response_time)`` visits to serve.
    """
    store = MeasurementStore(interval_ms=1000.0, bounds=(50.0, 200.0, 400.0))
    for _ in range(20):
        store.observe(100.0, "g", "home", 40.0)
    # Window 1: half the responses are slow, plus three errors.
    for _ in range(5):
        store.observe(1100.0, "g", "home", 40.0)
    for _ in range(5):
        store.observe(1100.0, "g", "home", 300.0)
    for now, response_time in extra:
        store.observe(now, "g", "home", response_time)
    store.fault_windows = (
        {"kind": "partition", "label": "router<->edge1", "start": 1050.0, "end": 1800.0},
    )
    state = store.to_state()["series"]
    # The sampler's counter delta for the window.
    state["windows"]["1"]["counters"]["requests.errors"] = 3
    return state


def test_latency_burn_is_bad_fraction_over_budget():
    report = evaluate_slo(_series_state(), parse_objectives({"objectives": [P95]}))
    entry = report["objectives"]["p95"]
    assert entry["evaluated"] == 2 and entry["violated"] == 1
    good, bad = entry["windows"]
    assert good["ok"] and good["burn"] == pytest.approx(0.0)
    # Window 1: 5/10 observations above 100 ms; budget is 1 - 0.95.
    assert not bad["ok"]
    assert bad["burn"] == pytest.approx(0.5 / 0.05)
    assert bad["in_fault"] and not good["in_fault"]


def test_availability_burn_and_windows_without_traffic_skipped():
    state = _series_state()
    state["windows"]["5"] = {"gauges": {"sessions.active": 0}}  # no traffic
    report = evaluate_slo(state, parse_objectives({"objectives": [AVAIL]}))
    entry = report["objectives"]["avail"]
    assert entry["evaluated"] == 2
    bad = entry["windows"][1]
    assert bad["value"] == pytest.approx(10 / 13)
    assert bad["burn"] == pytest.approx((3 / 13) / 0.1)
    assert not bad["ok"]


def test_recovery_time_measured_from_fault_end():
    # Window 2 is compliant again: recovery at 2000 ms, fault ends 1800.
    report = evaluate_slo(
        _series_state((2100.0, 40.0)), parse_objectives({"objectives": [P95]})
    )
    recovery = report["objectives"]["p95"]["recovery"][0]
    assert recovery["fault"] == "partition:router<->edge1"
    assert recovery["recovery_ms"] == pytest.approx(200.0)


def test_recovery_none_when_never_compliant_again():
    report = evaluate_slo(_series_state(), parse_objectives({"objectives": [P95]}))
    assert report["objectives"]["p95"]["recovery"][0]["recovery_ms"] is None


def test_page_scoped_objective_reads_that_page_only():
    objective = {"name": "item", "metric": "p50", "page": "item", "max_ms": 100}
    report = evaluate_slo(
        _series_state(), parse_objectives({"objectives": [objective]})
    )
    # No "item" page in the series: nothing to evaluate, nothing violated.
    assert report["objectives"]["item"]["evaluated"] == 0


# -- rendering and artifact ---------------------------------------------------


def test_render_report_shows_verdict_worst_window_and_recovery():
    report = evaluate_slo(
        _series_state(), parse_objectives({"objectives": [P95, AVAIL]})
    )
    text = render_slo_report("rubis/L2", report)
    assert "rubis/L2" in text and "VIOLATED" in text
    assert "worst window @ 1s" in text and "[fault]" in text
    assert "never recovered" in text


def test_export_validate_round_trip():
    report = evaluate_slo(_series_state(), parse_objectives({"objectives": [P95]}))
    data = json.loads(canonical_json({"slo": {"rubis/L2": report}}))
    assert validate_slo(data) == []
    data["slo"]["rubis/L2"]["objectives"]["p95"]["violated"] = 99
    assert any("violated" in problem for problem in validate_slo(data))
