"""Method-cache staleness under faults (the level-6 consistency audit).

Under ``edge-partition`` the WAN link to edge1 goes dark mid-run, so
invalidation pushes to that edge are lost while its local clients keep
reading.  The contract split by mode:

* **strict** (SYNC): the lease and sequence-gap guards must keep the
  audited stale-serve count at exactly zero even though payloads were
  provably lost (``missed_payloads`` > 0 proves the scenario bit);
* **bounded** (ASYNC, the canned level 6): hits inside commit-to-
  invalidation windows are allowed but must be *measured* — the
  availability report carries the staleness window.
"""

from dataclasses import replace

from repro.core.patterns import PatternLevel
from repro.core.policy import level_policy
from repro.experiments.runner import run_configuration
from repro.faults.report import build_availability_table, render_availability_table
from repro.faults.scenarios import scenario
from repro.middleware.descriptors import UpdateMode
from repro.middleware.updates import UPDATE_SUBSCRIBER
from repro.workload.generator import WorkloadConfig

import repro.apps.rubis as rubis

DURATION_MS = 15_000.0
WARMUP_MS = 3_000.0


def _workload():
    # Writer-heavy with short think times: the default 7 s think time
    # means a seven-page bidder script never reaches its bid inside a
    # 15 s window, so no invalidation traffic would exist to disrupt.
    return WorkloadConfig(
        total_rate_per_s=30.0,
        browser_fraction=0.5,
        think_time_ms=1_000.0,
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
    )


def _scenario():
    return scenario("edge-partition", DURATION_MS, WARMUP_MS)


def _strict_policy():
    application = rubis.build_application()
    policy = level_policy(PatternLevel.METHOD_CACHING, application)
    components = {
        name: cp
        for name, cp in policy.components.items()
        if name != UPDATE_SUBSCRIBER
    }
    return replace(
        policy,
        name="method-cache-strict",
        update_mode=UpdateMode.SYNC,
        components=components,
    )


def test_strict_mode_serves_zero_stale_results_under_partition():
    result = run_configuration(
        "rubis",
        PatternLevel.METHOD_CACHING,
        workload=_workload(),
        seed=13,
        faults=_scenario(),
        policy=_strict_policy(),
    )
    audit = result.resilience["method_cache"]
    # The scenario must actually bite, or the zero proves nothing.
    assert audit["missed_payloads"] > 0
    assert audit["hits"] > 0
    assert audit["stale_serves"] == 0
    # The guards did real work: lost pushes surfaced as sequence gaps
    # and the reconnected cache dropped its entries rather than serve them.
    assert audit["seq_gaps"] > 0
    assert audit["drops"] > 0
    # Strict mode never opens a measured staleness window.
    assert audit["staleness_events"] == 0


def test_bounded_mode_measures_its_staleness_window_under_partition():
    result = run_configuration(
        "rubis",
        PatternLevel.METHOD_CACHING,  # canned level 6 is ASYNC/bounded
        workload=_workload(),
        seed=13,
        faults=_scenario(),
    )
    audit = result.resilience["method_cache"]
    assert audit["hits"] > 0
    assert audit["staleness_events"] > 0
    assert audit["staleness_total_ms"] > 0.0
    assert audit["staleness_max_ms"] > 0.0


def test_availability_table_carries_the_method_cache_line():
    result = run_configuration(
        "rubis",
        PatternLevel.METHOD_CACHING,
        workload=_workload(),
        seed=13,
        faults=_scenario(),
    )
    series = {PatternLevel.METHOD_CACHING: result}
    table = build_availability_table("rubis", series, scenario="edge-partition")
    text = render_availability_table(table)
    assert "method cache:" in text
    assert "staleness=" in text


def test_fault_free_resilience_has_no_method_cache_key_below_level_6():
    result = run_configuration(
        "rubis", PatternLevel.ASYNC_UPDATES, workload=_workload(), seed=13
    )
    assert "method_cache" not in result.resilience
