"""Unit tests for response-time aggregation."""

import pytest

from repro.simnet.monitor import PageStats, ResponseTimeMonitor


def test_page_stats_mean_min_max():
    stats = PageStats()
    for value in (10.0, 20.0, 30.0):
        stats.add(value)
    assert stats.mean == pytest.approx(20.0)
    assert stats.minimum == 10.0
    assert stats.maximum == 30.0
    assert stats.count == 3


def test_page_stats_stddev():
    stats = PageStats()
    for value in (10.0, 20.0):
        stats.add(value)
    assert stats.stddev == pytest.approx(5.0)


def test_page_stats_percentile_requires_samples():
    stats = PageStats()
    stats.add(5.0, keep_sample=True)
    stats.add(15.0, keep_sample=True)
    stats.add(25.0, keep_sample=True)
    assert stats.percentile(0.0) == 5.0
    assert stats.percentile(1.0) == 25.0
    assert stats.percentile(0.5) == 15.0


def test_monitor_groups_and_pages():
    monitor = ResponseTimeMonitor()
    monitor.observe(10.0, "local-browser", "Item", 50.0)
    monitor.observe(11.0, "remote-browser", "Item", 450.0)
    assert monitor.groups() == ["local-browser", "remote-browser"]
    assert monitor.pages("local-browser") == ["Item"]
    assert monitor.mean("remote-browser", "Item") == 450.0


def test_monitor_warmup_discards_early_samples():
    monitor = ResponseTimeMonitor(warmup=100.0)
    monitor.observe(50.0, "g", "P", 999.0)
    monitor.observe(150.0, "g", "P", 10.0)
    assert monitor.mean("g", "P") == 10.0
    assert monitor.discarded_warmup == 1


def test_monitor_session_mean_spans_pages():
    monitor = ResponseTimeMonitor()
    monitor.observe(1.0, "g", "A", 10.0)
    monitor.observe(2.0, "g", "B", 30.0)
    assert monitor.session_mean("g") == pytest.approx(20.0)


def test_monitor_table_structure():
    monitor = ResponseTimeMonitor()
    monitor.observe(1.0, "g", "A", 10.0)
    table = monitor.table()
    assert table == {"g": {"A": 10.0}}


def test_monitor_merge_combines_counts():
    a = ResponseTimeMonitor()
    b = ResponseTimeMonitor()
    a.observe(1.0, "g", "P", 10.0)
    b.observe(1.0, "g", "P", 30.0)
    merged = a.merged(b)
    assert merged.mean("g", "P") == pytest.approx(20.0)
    assert merged.page_stats("g", "P").count == 2


# ---------------------------------------------------------------------------
# Percentile interpolation and empty-cell minimum (regression)
# ---------------------------------------------------------------------------


def test_page_stats_percentile_interpolates():
    stats = PageStats()
    for value in (10.0, 20.0):
        stats.add(value, keep_sample=True)
    # Regression: the old implementation truncated the index, returning
    # 10.0 for the median of [10, 20].
    assert stats.percentile(0.5) == pytest.approx(15.0)
    stats.add(30.0, keep_sample=True)
    stats.add(40.0, keep_sample=True)
    assert stats.percentile(0.25) == pytest.approx(17.5)
    assert stats.percentile(0.75) == pytest.approx(32.5)
    # Out-of-range quantiles clamp instead of indexing out of bounds.
    assert stats.percentile(-0.5) == 10.0
    assert stats.percentile(1.5) == 40.0


def test_empty_page_stats_reports_zero_minimum():
    stats = PageStats()
    # Regression: an empty cell used to leak minimum == inf into reports.
    assert stats.minimum == 0.0
    assert stats.mean == 0.0
    stats.add(5.0)
    assert stats.minimum == 5.0


def test_page_stats_merge_with_empty_keeps_minimum_finite():
    stats = PageStats()
    stats.add(7.0)
    stats.merge(PageStats())
    assert stats.minimum == 7.0
    empty = PageStats()
    empty.merge(PageStats())
    assert empty.minimum == 0.0


# ---------------------------------------------------------------------------
# Monitor merging (regression: samples and warm-up counters survive)
# ---------------------------------------------------------------------------


def test_merged_monitor_preserves_samples_and_percentiles():
    a = ResponseTimeMonitor(keep_samples=True)
    b = ResponseTimeMonitor(keep_samples=True)
    a_values = [10.0, 30.0, 50.0]
    b_values = [20.0, 40.0]
    for value in a_values:
        a.observe(1.0, "g", "P", value)
    for value in b_values:
        b.observe(1.0, "g", "P", value)
    merged = a.merged(b)
    # Regression: merged() used to drop every sample, so percentile()
    # silently returned 0.0.
    reference = PageStats()
    for value in a_values + b_values:
        reference.add(value, keep_sample=True)
    median = merged.page_stats("g", "P").percentile(0.5)
    assert median == reference.percentile(0.5)
    assert median == pytest.approx(30.0)
    assert merged.keep_samples is True
    assert sorted(merged.page_stats("g", "P").samples) == sorted(a_values + b_values)
    assert sorted(merged._session_stats["g"].samples) == sorted(a_values + b_values)


def test_merged_monitor_mixed_sample_keeping():
    a = ResponseTimeMonitor(keep_samples=True)
    b = ResponseTimeMonitor(keep_samples=False)
    a.observe(1.0, "g", "P", 10.0)
    b.observe(1.0, "g", "P", 30.0)
    merged = a.merged(b)
    # Samples merge when either source kept them.
    assert merged.keep_samples is True
    assert merged.page_stats("g", "P").samples == [10.0]
    assert merged.page_stats("g", "P").count == 2


def test_merged_monitor_carries_warmup_discards():
    a = ResponseTimeMonitor(warmup=100.0)
    b = ResponseTimeMonitor(warmup=50.0)
    a.observe(10.0, "g", "P", 1.0)   # discarded
    a.observe(150.0, "g", "P", 2.0)
    b.observe(10.0, "g", "P", 3.0)   # discarded
    b.observe(20.0, "g", "P", 4.0)   # discarded
    merged = a.merged(b)
    # Regression: merged() used to reset discarded_warmup to 0.
    assert merged.discarded_warmup == 3
    assert merged.warmup == 100.0
    assert merged.page_stats("g", "P").count == 1


def test_merged_monitor_minimum_and_maximum():
    a = ResponseTimeMonitor()
    b = ResponseTimeMonitor()
    a.observe(1.0, "g", "P", 25.0)
    b.observe(1.0, "g", "P", 5.0)
    merged = a.merged(b)
    stats = merged.page_stats("g", "P")
    assert stats.minimum == 5.0
    assert stats.maximum == 25.0
    # A cell present in neither source stays empty with a 0.0 minimum.
    assert merged.page_stats("g", "missing").minimum == 0.0


# ---------------------------------------------------------------------------
# Serialization (the parallel runner's transport format)
# ---------------------------------------------------------------------------


def test_monitor_state_roundtrip_is_lossless():
    monitor = ResponseTimeMonitor(keep_samples=True, warmup=10.0)
    monitor.observe(5.0, "g", "P", 1.0)  # discarded by warm-up
    monitor.observe(20.0, "local-browser", "Item", 50.0)
    monitor.observe(21.0, "local-browser", "Item", 70.0)
    monitor.observe(22.0, "remote-browser", "Item", 450.0)
    rebuilt = ResponseTimeMonitor.from_state(monitor.to_state())
    assert rebuilt.table() == monitor.table()
    assert rebuilt.groups() == monitor.groups()
    assert rebuilt.discarded_warmup == monitor.discarded_warmup
    assert rebuilt.keep_samples is True
    assert rebuilt.warmup == 10.0
    for group in monitor.groups():
        assert rebuilt.session_mean(group) == monitor.session_mean(group)
        for page in monitor.pages(group):
            original = monitor.page_stats(group, page)
            copy = rebuilt.page_stats(group, page)
            assert copy.count == original.count
            assert copy.total == original.total
            assert copy.total_sq == original.total_sq
            assert copy.minimum == original.minimum
            assert copy.maximum == original.maximum
            assert copy.samples == original.samples
            assert copy.percentile(0.5) == original.percentile(0.5)


def test_monitor_state_is_json_safe():
    import json

    monitor = ResponseTimeMonitor()
    rebuilt = ResponseTimeMonitor.from_state(
        json.loads(json.dumps(monitor.to_state()))
    )
    # Empty monitors (inf min cells) must survive a JSON round trip.
    monitor.observe(1.0, "g", "P", 10.0)
    state = json.loads(json.dumps(monitor.to_state()))
    assert ResponseTimeMonitor.from_state(state).mean("g", "P") == 10.0
    assert rebuilt.groups() == []
