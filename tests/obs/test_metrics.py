"""MetricsRegistry instruments, end-of-run collection, export determinism.

The load-bearing property mirrors the tables/figures contract: the
``metrics.json`` of an ``--out`` bundle is byte-identical whether the sweep ran
serially or across a worker pool.
"""

import json

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.runner import run_configuration, run_series
from repro.obs.export import canonical_json, validate_metrics
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    collect_cache_stats,
)

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
LEVELS = [PatternLevel.CENTRALIZED, PatternLevel.QUERY_CACHING]


# -- instruments --------------------------------------------------------------


def test_counter_rejects_decrease():
    counter = Counter()
    counter.inc(3)
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 3


def test_histogram_buckets_and_mean():
    histogram = Histogram(bounds=(10.0, 100.0))
    for value in (5.0, 50.0, 500.0):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 1]
    assert histogram.count == 3
    assert histogram.mean == pytest.approx(185.0)


def test_registry_rejects_type_conflicts_and_snapshots_sorted():
    registry = MetricsRegistry()
    registry.counter("b.total").inc(2)
    registry.gauge("a.level").set(7)
    registry.histogram("c.lag").observe(12.0)
    with pytest.raises(ValueError):
        registry.gauge("b.total")
    state = registry.to_state()
    assert list(state["counters"]) == sorted(state["counters"])
    assert registry.value("b.total") == 2
    assert registry.value("a.level") == 7
    assert json.loads(json.dumps(state)) == state


# -- collection from a real run ----------------------------------------------


@pytest.fixture(scope="module")
def metric_result():
    return run_configuration(
        "petstore",
        PatternLevel.QUERY_CACHING,
        workload=FAST,
        seed=7,
    )


def test_collect_system_metrics_covers_every_layer(metric_result):
    registry = metric_result.store.registry
    names = registry.names()
    assert "app_server.main.http_requests" in names
    assert "db.statements" in names
    assert "db.executor.index_scans" in names
    assert "db.executor.full_scans" in names
    assert "workload.requests" in names
    assert any(name.startswith("querycache.") for name in names)
    assert any(name.startswith("replica.") for name in names)
    assert registry.value("workload.requests") > 0
    assert registry.value("db.executor.index_scans") > 0


def test_cache_stats_survive_the_run(metric_result):
    stats = metric_result.cache_stats
    assert stats is not None
    assert set(stats) == {"query_cache", "replicas"}
    hits = sum(
        counters.get("hits", 0)
        for per_server in stats["replicas"].values()
        for counters in per_server.values()
    )
    assert hits > 0
    # Canonical nesting: server keys sorted.
    assert list(stats["replicas"]) == sorted(stats["replicas"])


def test_cache_stats_match_metrics_registry(metric_result):
    """querycache.* counters are exactly the cache_stats leaves."""
    stats = collect_cache_stats(metric_result.system)
    for server, per_query in stats["query_cache"].items():
        for query_id, counters in per_query.items():
            for counter_name, value in counters.items():
                name = f"querycache.{server}.{query_id}.{counter_name}"
                assert metric_result.store.registry.value(name) == value


# -- serial/parallel byte identity -------------------------------------------


def test_metrics_export_byte_identical_serial_vs_parallel():
    serial = run_series(
        "petstore", levels=LEVELS, workload=FAST, seed=21, jobs=1,
    )
    parallel = run_series(
        "petstore", levels=LEVELS, workload=FAST, seed=21, jobs=2,
    )

    def cells(results):
        return [
            (f"petstore/L{int(level)}", results[level].measurements["metrics"])
            for level in LEVELS
        ]

    serial_text, parallel_text = (
        canonical_json({"cells": dict(cells(results))}) for results in (serial, parallel)
    )
    assert serial_text == parallel_text
    assert validate_metrics(json.loads(serial_text)) == []


def test_cell_results_carry_observability_snapshots():
    results = run_series(
        "petstore", levels=[PatternLevel.QUERY_CACHING], workload=FAST,
        seed=21, jobs=2,
    )
    cell = results[PatternLevel.QUERY_CACHING]
    assert cell.cache_stats is not None
    assert cell.spans_state is None  # spans were not requested
    assert cell.measurements["series"] is None  # no window interval
    assert any(
        name.startswith("querycache.")
        for name in cell.measurements["metrics"]["counters"]
    )
