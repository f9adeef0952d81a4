"""The chain walk reports what the mechanism-by-mechanism walk reported.

``collect_cache_stats`` iterates each server's consistency chain and asks
every member for its counters; ``reference_cache_stats`` is the reader it
replaced.  Short cells of both applications at every level, and one that
crashes an edge mid-run, must give the same dict — same values, same key
order, so every artifact built from it stays byte-identical.
"""

import json

import pytest

from repro.experiments.calibration import default_workload
from repro.experiments.runner import RunSpec, run_configuration
from repro.faults.report import availability_row
from repro.faults.scenarios import scenario
from repro.obs.metrics import collect_cache_stats
from tests.obs.reference_cache_stats import reference_cache_stats

DURATION_MS = 8_000.0
WARMUP_MS = 2_000.0
FAULT_DURATION_MS = 30_000.0


def _assert_same_stats(result):
    expected = reference_cache_stats(result.system)
    stats = collect_cache_stats(result.system)
    assert stats == expected
    assert json.dumps(stats) == json.dumps(expected)  # key order too
    assert result.cache_stats == expected
    return stats


@pytest.mark.parametrize("level", range(1, 7))
@pytest.mark.parametrize("app", ["petstore", "rubis"])
def test_chain_walk_equals_reference_reader(app, level):
    spec = RunSpec(workload=default_workload(duration_ms=DURATION_MS, warmup_ms=WARMUP_MS))
    stats = _assert_same_stats(run_configuration(app, level, spec))
    assert ("method_cache" in stats) == (level == 6)
    assert bool(stats["replicas"]) == (level >= 3)
    assert bool(stats["query_cache"]) == (level >= 4)


def test_chain_walk_equals_reference_reader_after_an_edge_crash():
    spec = RunSpec(
        workload=default_workload(duration_ms=FAULT_DURATION_MS, warmup_ms=WARMUP_MS),
        faults=scenario("edge-crash", FAULT_DURATION_MS, WARMUP_MS),
    )
    result = run_configuration("rubis", 6, spec)
    stats = _assert_same_stats(result)
    assert availability_row(result.measurements["metrics"])["server_crashes"] == 1
    assert stats["method_cache"]["edge1"]["drops"] == 1
