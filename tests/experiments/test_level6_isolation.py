"""Level 6 is opt-in: the published levels 1–5 artifacts are untouched.

The consistency-substrate refactor rebuilt the plumbing under levels
3–5 (query caching, replicas, update propagation), so the regression
contract is strict: default sweeps still cover exactly the paper's five
configurations, levels 1–5 emit no method-cache sections or counters in
any artifact, and sweeps that do include level 6 stay byte-identical
between serial and worker-pool execution like every other level.
"""

import pytest

from repro.core.patterns import PAPER_LEVELS, PatternLevel
from repro.experiments import calibration
from repro.experiments.figures import build_figure, figure_to_csv, render_figure
from repro.experiments.runner import run_configuration, run_series
from repro.experiments.tables import build_table, render_table, table_to_csv
from repro.faults.report import availability_row

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
QUICK = calibration.default_workload(duration_ms=6_000.0, warmup_ms=1_000.0)
LEVELS = [PatternLevel.ASYNC_UPDATES, PatternLevel.METHOD_CACHING]


def test_paper_levels_stop_at_async_updates():
    assert PAPER_LEVELS == tuple(PatternLevel)[:5]
    assert PatternLevel.METHOD_CACHING not in PAPER_LEVELS


def test_default_series_sweeps_paper_levels_only():
    series = run_series("petstore", workload=QUICK, seed=31)
    assert list(series) == list(PAPER_LEVELS)


@pytest.mark.parametrize("level", list(PAPER_LEVELS))
def test_paper_levels_emit_no_method_cache_artifacts(level):
    result = run_configuration(
        "rubis", level, workload=QUICK, seed=31
    )
    # No server grew a cache, so no section appears in the snapshot...
    for server in result.system.servers.values():
        assert getattr(server, "method_cache", None) is None
    assert "method_cache" not in result.cache_stats
    # ...no counter appears in the registry...
    assert not any(
        name.startswith("methodcache.") for name in result.store.registry.names()
    )
    # ...and the availability row keeps its pre-refactor key set.
    assert "method_cache" not in availability_row(result.measurements["metrics"])


@pytest.fixture(scope="module")
def serial_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=1)


@pytest.fixture(scope="module")
def parallel_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=2)


def test_level6_serial_vs_pool_monitors_identical(serial_series, parallel_series):
    for level in LEVELS:
        assert (
            serial_series[level].monitor.table()
            == parallel_series[level].monitor.table()
        ), level


def test_level6_serial_vs_pool_artifacts_byte_identical(
    serial_series, parallel_series
):
    serial_table = build_table(serial_series)
    parallel_table = build_table(parallel_series)
    assert render_table(serial_table) == render_table(parallel_table)
    assert table_to_csv(serial_table) == table_to_csv(parallel_table)
    serial_figure = build_figure(serial_series)
    parallel_figure = build_figure(parallel_series)
    assert render_figure(serial_figure) == render_figure(parallel_figure)
    assert figure_to_csv(serial_figure) == figure_to_csv(parallel_figure)


def test_level6_cache_stats_survive_the_worker_pool(serial_series, parallel_series):
    serial = serial_series[PatternLevel.METHOD_CACHING].cache_stats
    parallel = parallel_series[PatternLevel.METHOD_CACHING].cache_stats
    assert "method_cache" in serial
    assert serial["method_cache"] == parallel["method_cache"]
    # Level 5's stats stay free of the new section in both modes.
    assert "method_cache" not in serial_series[PatternLevel.ASYNC_UPDATES].cache_stats
    assert (
        "method_cache"
        not in parallel_series[PatternLevel.ASYNC_UPDATES].cache_stats
    )


# Remote-browser pages served by the annotated cacheable methods.
READ_PAGES = (
    "All Categories", "All Regions", "Bids", "Category",
    "Category & Region", "Item", "Region", "User Info",
)


def test_level6_serves_hits_and_does_not_slow_the_read_pages(serial_series):
    """Level 6 must not regress the read path it exists to accelerate."""
    level5 = serial_series[PatternLevel.ASYNC_UPDATES]
    level6 = serial_series[PatternLevel.METHOD_CACHING]
    counters = level6.cache_stats["method_cache"].values()
    assert sum(c["hits"] for c in counters) > 0
    assert all(c["rejected_stores"] == 0 for c in counters)  # no method wrote
    assert all(c["missed_payloads"] == 0 for c in counters)  # no push was lost
    means = {
        level: [result.mean("remote-browser", page) for page in READ_PAGES]
        for level, result in ((5, level5), (6, level6))
    }
    assert None not in means[5] + means[6]  # every read page was visited
    assert sum(means[6]) <= sum(means[5])
