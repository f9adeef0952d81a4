"""The availability row read from metrics equals the old second walk.

``availability_row`` projects a cell's metrics snapshot onto the row the
availability table prints; ``reference_resilience`` is the walk of the
deployment it replaced.  One short cell per canned fault scenario (the
data-tier ones under the sharded policy), an open-loop cell whose
admission cap binds, and a fault-free level-6 cell must give the same
JSON — same keys, same values, same types — so ``availability.json``
and every printed table stay byte-identical.  The level-6 ``flaky-wan``
cell measures method-cache staleness on both edges, so summing the
per-server worst case instead of taking the max is caught too.
"""

import json
from pathlib import Path

import pytest

from repro.core.policy import load_policy
from repro.experiments.calibration import default_workload
from repro.experiments.runner import RunSpec, run_configuration
from repro.faults.report import availability_row
from repro.faults.scenarios import scenario
from repro.workload.openloop import OpenLoopConfig
from tests.faults.reference_resilience import reference_resilience

DURATION_MS = 30_000.0
WARMUP_MS = 5_000.0
SHARDED_POLICY = Path(__file__).resolve().parents[2] / "policies" / "sharded-replicated.json"

# name -> (app, level, fault scenario, loop)
CELLS = {
    "edge-crash": ("rubis", 6, "edge-crash", "closed"),
    "edge-partition": ("petstore", 3, "edge-partition", "closed"),
    "flaky-wan": ("rubis", 6, "flaky-wan", "closed"),
    "latency-spike": ("petstore", 4, "latency-spike", "closed"),
    "db-leader-crash": ("rubis", 3, "db-leader-crash", "closed"),
    "db-shard-partition": ("rubis", 3, "db-shard-partition", "closed"),
    "open-loop-edge-partition": ("rubis", 5, "edge-partition", "open"),
    "fault-free-level-6": ("rubis", 6, None, "closed"),
}


def _spec(fault, loop):
    options = {}
    if loop == "open":
        options["openloop"] = OpenLoopConfig(
            duration_ms=DURATION_MS,
            warmup_ms=WARMUP_MS,
            session_rate_per_s=3.0,
            max_sessions=4,
        )
    else:
        options["workload"] = default_workload(duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)
    if fault is not None:
        options["faults"] = scenario(fault, DURATION_MS, WARMUP_MS)
    if fault is not None and fault.startswith("db-"):
        options["policy"] = load_policy(str(SHARDED_POLICY))
    return RunSpec(**options)


@pytest.mark.parametrize("name", list(CELLS))
def test_availability_row_equals_the_reference_walk(name):
    app, level, fault, loop = CELLS[name]
    result = run_configuration(app, level, _spec(fault, loop))
    row = availability_row(result.measurements["metrics"])
    expected = reference_resilience(result.system, generator=result.generator)
    assert json.dumps(row, sort_keys=True) == json.dumps(expected, sort_keys=True)
    if name == "flaky-wan":
        worst = [
            counters["staleness_max_ms"]
            for counters in result.cache_stats["method_cache"].values()
        ]
        assert len(worst) == 2 and min(worst) > 0.0, worst
    if loop == "open":
        assert row["dropped_sessions"] > 0
