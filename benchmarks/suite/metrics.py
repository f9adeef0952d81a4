"""Every metric the suite reports: name, unit, direction, kind, formula.

``BENCHMARK.json`` lists the same names and units (``test_suite.py``
holds the two together); this module is where each is computed from what
the child processes measured.

``kind`` says what a number is made of, because in a simulator the two
clocks must never be mixed:

* ``host``  - host time or memory: what the simulator costs to run.
  Noisy; the value is the median over repeats.
* ``sim``   - simulated time: what the modelled deployment would take.
  A pure function of seed and input; must not move under a speed-up.
* ``exact`` - a count or a ratio of counts.  Repeats bit for bit.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

from layers import LAYERS, OTHER


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    kind: str    # "host" | "sim" | "exact"
    bound: float = 0.0  # end-to-end only: share of the median it may worsen


# Bounds are shares of the parent's median.  ``setup_s`` is fractions of
# a second on four of five workloads and gets the widest bound allowed.
# ``sim_resp_mean_ms`` and ``success_share`` repeat exactly at one seed
# (``validate.py compare`` demands equality there); their bounds here
# only have to cover the driver's seed-to-seed spread.
END_TO_END: Sequence[Metric] = (
    Metric("fetches_per_s", "1/s", "higher", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.05),
    Metric("success_share", "share", "higher", "exact", 0.001),
    Metric("sim_resp_mean_ms", "ms", "lower", "sim", 0.12),
)

BOUNDARY_CALLS = (
    "middleware.web.gets",
    "middleware.rmi.remote_calls",
    "middleware.rmi.local_calls",
    "middleware.consistency.deliveries",
    "middleware.jms.publishes",
    "rdbms.exec.executes",
    "rdbms.sql.parses",
    "workload.sessions_built",
)

TRACED: Sequence[Metric] = (
    *(Metric(f"{layer}.self_share", "share", "lower", "host") for layer in (*LAYERS, OTHER)),
    *(Metric(f"{layer}.py_calls_per_fetch", "calls/fetch", "lower", "exact") for layer in LAYERS),
    *(Metric(f"{name}_per_fetch", "calls/fetch", "lower", "exact") for name in BOUNDARY_CALLS),
    Metric("trace.py_calls_per_fetch", "calls/fetch", "lower", "exact"),
    Metric("trace.overhead_ratio", "ratio", "lower", "host"),
)

WORK_COUNTS: Sequence[Metric] = (
    Metric("simnet.kernel.events_per_fetch", "events/fetch", "lower", "exact"),
    Metric("simnet.net.transfers_per_fetch", "msgs/fetch", "lower", "exact"),
    Metric("simnet.net.wan_packets_per_fetch", "packets/fetch", "lower", "exact"),
    Metric("rdbms.wire.statements_per_fetch", "stmts/fetch", "lower", "exact"),
    Metric("rdbms.wire.commits_per_fetch", "commits/fetch", "lower", "exact"),
    Metric("rdbms.wire.rollbacks_per_fetch", "rollbacks/fetch", "lower", "exact"),
    Metric("rdbms.exec.rows_scanned_per_stmt", "rows/stmt", "lower", "exact"),
    Metric("rdbms.exec.index_scan_share", "share", "higher", "exact"),
    Metric("middleware.consistency.replica_hit_ratio", "share", "higher", "exact"),
    Metric("middleware.consistency.query_cache_hit_ratio", "share", "higher", "exact"),
    Metric("middleware.consistency.pushes_per_fetch", "pushes/fetch", "lower", "exact"),
    Metric("middleware.jms.deliveries_per_fetch", "msgs/fetch", "lower", "exact"),
    Metric("workload.sessions_per_fetch", "sessions/fetch", "lower", "exact"),
    Metric("workload.peak_sessions", "count", "lower", "exact"),
)

MICRO: Sequence[Metric] = (
    Metric("simnet.kernel.micro_events_per_s", "1/s", "higher", "host"),
    Metric("simnet.net.micro_transfers_per_s", "1/s", "higher", "host"),
    Metric("simnet.net.micro_requests_per_s", "1/s", "higher", "host"),
    Metric("middleware.rmi.micro_calls_per_s", "1/s", "higher", "host"),
    Metric("middleware.container.micro_invocations_per_s", "1/s", "higher", "host"),
    Metric("middleware.web.micro_gets_per_s", "1/s", "higher", "host"),
    Metric("rdbms.sql.micro_parses_per_s", "1/s", "higher", "host"),
    Metric("rdbms.sql.micro_cached_parses_per_s", "1/s", "higher", "host"),
    Metric("rdbms.exec.micro_point_selects_per_s", "1/s", "higher", "host"),
    Metric("rdbms.exec.micro_range_selects_per_s", "1/s", "higher", "host"),
    Metric("rdbms.exec.micro_join_selects_per_s", "1/s", "higher", "host"),
    Metric("rdbms.exec.micro_writes_per_s", "1/s", "higher", "host"),
    Metric("rdbms.wire.micro_roundtrips_per_s", "1/s", "higher", "host"),
    Metric("workload.micro_sessions_per_s", "1/s", "higher", "host"),
    Metric("obs.micro_spans_per_s", "1/s", "higher", "host"),
    Metric("apps.populate_ms.petstore", "ms", "lower", "host"),
    Metric("apps.populate_ms.rubis", "ms", "lower", "host"),
    Metric("core.distribute_ms.level1", "ms", "lower", "host"),
    Metric("core.distribute_ms.level5", "ms", "lower", "host"),
)

PER_LAYER: Sequence[Metric] = (*TRACED, *WORK_COUNTS, *MICRO)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(values: List[float]) -> dict:
    """Median, quartiles, extremes and n of one host-time metric's repeats."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "values": values,
    }


def end_to_end(repeats: List[dict]) -> Dict[str, dict]:
    """The five end-to-end metrics over one workload's untraced repeats."""
    counts = repeats[0]["counts"]
    per_repeat = {
        "fetches_per_s": [r["counts"]["fetches"] / r["host"]["run_s"] for r in repeats],
        "setup_s": [r["host"]["setup_s"] for r in repeats],
        "peak_rss_mb": [r["host"]["peak_rss_mb"] for r in repeats],
        # Exact: every repeat agrees (run.py checks), so one value, n times.
        "success_share": [
            _ratio(counts["fetches"], counts["fetches"] + counts["errors"])
        ] * len(repeats),
        "sim_resp_mean_ms": [
            _ratio(repeats[0]["sim_resp_total_ms"], counts["sim_resp_count"])
        ] * len(repeats),
    }
    return {name: summarize(values) for name, values in per_repeat.items()}


def work_counts(counts: Dict[str, float]) -> Dict[str, float]:
    """Group 2: work per fetch from the untraced run's public counters."""
    fetches = counts["fetches"]
    return {
        "simnet.kernel.events_per_fetch": _ratio(counts["kernel_events"], fetches),
        "simnet.net.transfers_per_fetch": _ratio(counts["net_transfers"], fetches),
        "simnet.net.wan_packets_per_fetch": _ratio(counts["wan_packets"], fetches),
        "rdbms.wire.statements_per_fetch": _ratio(counts["db_statements"], fetches),
        "rdbms.wire.commits_per_fetch": _ratio(counts["db_commits"], fetches),
        "rdbms.wire.rollbacks_per_fetch": _ratio(counts["db_rollbacks"], fetches),
        "rdbms.exec.rows_scanned_per_stmt": _ratio(
            counts["db_rows_scanned"], counts["db_statements_executed"]
        ),
        "rdbms.exec.index_scan_share": _ratio(
            counts["db_index_scans"], counts["db_index_scans"] + counts["db_full_scans"]
        ),
        "middleware.consistency.replica_hit_ratio": _ratio(
            counts["replica_hits"], counts["replica_hits"] + counts["replica_misses"]
        ),
        "middleware.consistency.query_cache_hit_ratio": _ratio(
            counts["query_cache_hits"],
            counts["query_cache_hits"] + counts["query_cache_misses"],
        ),
        "middleware.consistency.pushes_per_fetch": _ratio(counts["pushes"], fetches),
        "middleware.jms.deliveries_per_fetch": _ratio(counts["jms_deliveries"], fetches),
        "workload.sessions_per_fetch": _ratio(counts["sessions"], fetches),
        "workload.peak_sessions": counts["peak_sessions"],
    }


def traced(traced_run: dict, untraced_twin: dict) -> Dict[str, float]:
    """Group 1: the traced run folded by layer.

    ``untraced_twin`` is the same input run without the profiler; the
    ratio of the two rates is what tracing costs.
    """
    profile = traced_run["profile"]
    layers = profile["layers"]
    fetches = profile["fetches"]
    total_self = sum(layer["self_s"] for layer in layers.values())
    total_calls = sum(layer["calls"] for layer in layers.values())
    values = {
        f"{name}.self_share": _ratio(layer["self_s"], total_self)
        for name, layer in layers.items()
    }
    values.update(
        (f"{name}.py_calls_per_fetch", _ratio(layers[name]["calls"], fetches))
        for name in LAYERS
    )
    values.update(
        (f"{name}_per_fetch", _ratio(profile["boundaries"][name], fetches))
        for name in BOUNDARY_CALLS
    )
    values["trace.py_calls_per_fetch"] = _ratio(total_calls, fetches)
    values["trace.overhead_ratio"] = _ratio(
        untraced_twin["counts"]["fetches"] / untraced_twin["host"]["run_s"],
        traced_run["counts"]["fetches"] / traced_run["host"]["run_s"],
    )
    return values
