"""Windowed telemetry: histogram quantiles and the store's series section.

``Histogram.percentile`` interpolates inside the bucket holding the q-th
observation and is exact (to within one bucket width) on known
distributions; the measurement store bins every served visit into the
window of its simulated time, and its series state is canonical JSON.
"""

import json

import pytest

from repro.obs.export import canonical_json, validate_series
from repro.obs.metrics import Histogram
from repro.obs.store import HDR_BOUNDS, MeasurementStore, _hdr_bounds


# -- percentile / cdf against exact answers ----------------------------------


def test_percentile_interpolates_uniform_distribution():
    """Uniform 1..100 against decade-free 10-wide buckets: p95 is exact."""
    histogram = Histogram(bounds=tuple(float(b) for b in range(10, 101, 10)))
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.percentile(0.95) == pytest.approx(95.0)
    assert histogram.percentile(0.50) == pytest.approx(50.0)
    assert histogram.percentile(0.10) == pytest.approx(10.0)
    # Extremes clamp to the grid, not beyond it.
    assert histogram.percentile(1.0) == pytest.approx(100.0)
    assert 0.0 <= histogram.percentile(0.0) <= 10.0


def test_percentile_one_observation_per_bucket():
    """{5, 15, 25, 35}: the median interpolates to the 15/25 midpoint."""
    histogram = Histogram(bounds=(10.0, 20.0, 30.0, 40.0))
    for value in (5.0, 15.0, 25.0, 35.0):
        histogram.observe(value)
    assert histogram.percentile(0.5) == pytest.approx(20.0)
    assert histogram.percentile(0.25) == pytest.approx(10.0)


def test_percentile_overflow_clamps_to_last_finite_bound():
    histogram = Histogram(bounds=(10.0,))
    histogram.observe(100.0)
    histogram.observe(200.0)
    assert histogram.percentile(0.99) == pytest.approx(10.0)


def test_percentile_empty_histogram_is_zero():
    assert Histogram(bounds=(10.0,)).percentile(0.95) == 0.0


def test_cdf_interpolates_and_is_monotone():
    histogram = Histogram(bounds=tuple(float(b) for b in range(10, 101, 10)))
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.cdf(95.0) == pytest.approx(0.95)
    assert histogram.cdf(50.0) == pytest.approx(0.50)
    assert histogram.cdf(100.0) == pytest.approx(1.0)
    samples = [histogram.cdf(float(v)) for v in range(0, 120, 5)]
    assert samples == sorted(samples)


def test_cdf_overflow_mass_counts_above_any_finite_value():
    histogram = Histogram(bounds=(10.0,))
    histogram.observe(5.0)
    histogram.observe(100.0)  # overflow bucket
    assert histogram.cdf(50.0) == pytest.approx(0.5)
    assert Histogram(bounds=(10.0,)).cdf(1.0) == 1.0  # vacuously compliant


def test_hdr_bounds_grid_shape():
    assert list(HDR_BOUNDS) == sorted(HDR_BOUNDS)
    assert HDR_BOUNDS[0] == 1.0
    assert HDR_BOUNDS[-1] == 60_000.0
    # ~12 buckets per decade: adjacent ratio stays near 10^(1/12).
    ratios = [b / a for a, b in zip(HDR_BOUNDS, HDR_BOUNDS[1:-1])]
    assert all(1.15 < r < 1.30 for r in ratios)
    assert _hdr_bounds(1.0, 10.0, per_decade=1) == (1.0, 10.0)


# -- store windows ------------------------------------------------------------


def test_observe_bins_by_simulated_time():
    store = MeasurementStore(warmup=500.0, interval_ms=1000.0, bounds=(50.0, 500.0))
    store.observe(100.0, "g", "home", 40.0)
    store.observe(999.0, "g", "home", 60.0)
    store.observe(1500.0, "g", "item", 400.0)
    state = store.to_state()
    windows = state["series"]["windows"]
    assert list(windows) == ["0", "1"]
    assert [windows[key]["counters"]["responses"] for key in windows] == [2, 1]
    # Window 0 holds both the page and the _all aggregate, warm-up included.
    assert set(windows["0"]["quantiles"]) == {"_all", "home"}
    assert windows["0"]["quantiles"]["_all"]["count"] == 2
    assert windows["0"]["quantiles"]["_all"]["counts"] == [1, 1, 0]
    # The whole-run section discards the visit served before the warm-up.
    assert state["whole_run"]["discarded_warmup"] == 1
    assert state["whole_run"]["session_stats"] == [["g", {"count": 2, "total": 460.0}]]


def test_recorder_rejects_bad_interval_and_bounds():
    with pytest.raises(ValueError):
        MeasurementStore(interval_ms=0.0)
    with pytest.raises(ValueError):
        MeasurementStore(bounds=(10.0, 5.0))


@pytest.mark.parametrize("interval_ms", [float("nan"), float("inf"), 0.0, -1.0])
def test_store_rejects_an_interval_that_is_not_positive_and_finite(interval_ms):
    # A NaN interval used to pass the old `<= 0` check and fail at the
    # first served visit; an infinite one put every visit in window 0.
    with pytest.raises(ValueError, match="positive and finite"):
        MeasurementStore(interval_ms=interval_ms)


# -- state --------------------------------------------------------------------


def _sample_store() -> MeasurementStore:
    store = MeasurementStore(interval_ms=1000.0, bounds=(50.0, 500.0))
    store.observe(100.0, "g", "home", 40.0)
    store.observe(1200.0, "g", "item", 300.0)
    # What the window-boundary sampler writes: a counter delta and a gauge.
    store._window(0)["counters"]["sessions.dropped"] = 2
    store._window(0)["gauges"]["sessions.active"] = 5
    return store


def test_state_round_trip_is_exact():
    state = _sample_store().to_state()
    assert json.loads(json.dumps(state)) == state
    # Canonical form: window keys are strings, sections sorted.
    series = state["series"]
    assert all(isinstance(key, str) for key in series["windows"])
    for entry in series["windows"].values():
        for section in ("counters", "gauges", "quantiles"):
            if section in entry:
                assert list(entry[section]) == sorted(entry[section])


def test_series_export_validates_clean():
    text = canonical_json({"series": {"app/L2": _sample_store().to_state()["series"]}})
    assert validate_series(json.loads(text)) == []
    # Canonical writer: compact separators, sorted keys, trailing newline.
    assert text.endswith("\n") and '": ' not in text


def test_validate_series_flags_corrupt_quantiles(tmp_path):
    state = _sample_store().to_state()["series"]
    state["windows"]["0"]["quantiles"]["home"]["count"] = 99
    problems = validate_series({"series": {"app/L2": state}})
    assert problems and any("count" in problem for problem in problems)
