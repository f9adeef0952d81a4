"""The per-configuration availability/degradation report.

``availability_row`` projects one finished cell's metrics snapshot — the
``workload.*``, ``resilience.*``, ``cluster.*`` and ``methodcache.*``
entries the one statistics walk registered — onto a canonical plain dict;
``build_availability_table`` / ``render_availability_table`` turn a
five-configuration series of those rows into the availability table
printed alongside Tables 6–7 when a fault scenario is active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.patterns import PatternLevel, level_name
from .stats import ResilienceStats

__all__ = [
    "availability_row",
    "AvailabilityTable",
    "build_availability_table",
    "render_availability_table",
    "availability_to_json",
    "validate_availability",
]


def _section(values: dict, prefix: str) -> dict:
    """The entries of ``values`` named ``prefix<key>``, by ``key``."""
    return {
        name[len(prefix):]: value for name, value in values.items() if name.startswith(prefix)
    }


def availability_row(metrics: dict) -> dict:
    """One cell's availability row, read from its metrics snapshot.

    ``metrics`` is ``MeasurementStore.to_state()["metrics"]``.  Every
    resilience counter is present — zero in a fault-free run, which is
    itself evidence the run was clean — and ``staleness_ms`` holds each
    server's non-zero staleness.  ``cluster`` appears only under a data
    tier and ``method_cache`` (the counters summed over servers, the
    worst staleness taken as the max) only under level 6, so every
    artifact of a run without them keeps its key set.
    """
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    row: dict = {
        "requests": counters["workload.requests"],
        "errors": counters["workload.errors"],
        "failovers": counters["workload.failovers"],
        # Dropped arrivals are a resilience fact of their own (always 0
        # on the closed loop, whose clients never drop).
        "dropped_sessions": counters["workload.sessions_dropped"],
    }
    for name in ResilienceStats.COUNTERS:
        row[name] = counters.get(f"resilience.{name}", 0)
    row["staleness_ms"] = _section(gauges, "resilience.staleness_ms.")
    if "cluster.staleness_ms" in gauges:
        row["cluster"] = {
            **_section(counters, "cluster."),
            "staleness_ms": gauges["cluster.staleness_ms"],
        }
    method_cache: dict = {}
    for name, value in _section(counters, "methodcache.").items():
        key = name.rpartition(".")[2]
        if key == "staleness_max_ms":
            method_cache[key] = max(method_cache.get(key, 0.0), value)
        else:
            method_cache[key] = method_cache.get(key, 0) + value
    if method_cache:
        row["method_cache"] = method_cache
    return row


@dataclass(frozen=True)
class AvailabilityTable:
    """One application's availability grid under one fault scenario."""

    app: str
    scenario: str
    # ((level, availability row), ...) in ascending level order.
    rows: Tuple[Tuple[PatternLevel, dict], ...]
    # Custom row labels (custom-policy runs); absent levels use level_name.
    labels: Dict[PatternLevel, str] = field(default_factory=dict)
    # Effective topology of the series' runs (edge count, WAN knobs).
    topology: Optional[dict] = None

    def row_label(self, level: PatternLevel) -> str:
        return self.labels.get(PatternLevel(level)) or level_name(level)


def build_availability_table(app: str, series: Dict, scenario: str = "") -> AvailabilityTable:
    """Assemble the table from a run series, one row per cell's metrics."""
    rows = []
    labels: Dict[PatternLevel, str] = {}
    topology = None
    for level in sorted(series, key=int):
        result = series[level]
        rows.append((PatternLevel(level), availability_row(result.measurements["metrics"])))
        if result.label:
            labels[PatternLevel(level)] = result.label
        if topology is None:
            topology = result.topology
    return AvailabilityTable(
        app=app, scenario=scenario, rows=tuple(rows), labels=labels, topology=topology
    )


def _availability_pct(row: dict) -> float:
    requests = row.get("requests", 0)
    errors = row.get("errors", 0)
    attempted = requests + errors
    if not attempted:
        return 100.0
    return 100.0 * requests / attempted


def render_availability_table(table: AvailabilityTable) -> str:
    """Text rendering, one configuration per row."""
    title = f"Availability under fault scenario '{table.scenario or '?'}' ({table.app})"
    header = (
        f"{'Configuration':32s} {'ok':>7s} {'err':>6s} {'avail%':>7s} "
        f"{'failov':>6s} {'retry':>6s} {'t/out':>6s} {'redlv':>6s} "
        f"{'drop':>5s} {'stale(s)':>9s}"
    )
    lines = [title, header, "-" * len(header)]
    for level, row in table.rows:
        staleness_s = sum(row.get("staleness_ms", {}).values()) / 1000.0
        lines.append(
            f"{table.row_label(level):32s} "
            f"{row.get('requests', 0):>7d} "
            f"{row.get('errors', 0):>6d} "
            f"{_availability_pct(row):>7.2f} "
            f"{row.get('failovers', 0):>6d} "
            f"{row.get('rmi_retries', 0):>6d} "
            f"{row.get('rmi_timeouts', 0):>6d} "
            f"{row.get('jms_redeliveries', 0):>6d} "
            f"{row.get('dropped_updates', 0):>5d} "
            f"{staleness_s:>9.3f}"
        )
        cluster = row.get("cluster")
        if cluster:
            lines.append(
                "  data tier: "
                f"elections={cluster.get('elections_won', 0)} "
                f"failovers={cluster.get('leader_failovers', 0)} "
                f"quorum_commits={cluster.get('quorum_commits', 0)} "
                f"xshard_txns={cluster.get('cross_shard_txns', 0)} "
                f"stale_reads={cluster.get('stale_reads_served', 0)} "
                f"staleness={cluster.get('staleness_ms', 0.0) / 1000.0:.3f}s"
            )
        method_cache = row.get("method_cache")
        if method_cache:
            lines.append(
                "  method cache: "
                f"hits={method_cache.get('hits', 0)} "
                f"stale_serves={method_cache.get('stale_serves', 0)} "
                f"drops={method_cache.get('drops', 0)} "
                f"missed={method_cache.get('missed_payloads', 0)} "
                f"staleness={method_cache.get('staleness_total_ms', 0.0) / 1000.0:.3f}s "
                f"(max {method_cache.get('staleness_max_ms', 0.0) / 1000.0:.3f}s)"
            )
    return "\n".join(lines)


def availability_to_json(tables) -> str:
    """Canonical JSON for the availability artifact (sorted keys)."""
    payload = {}
    for table in tables:
        entry: dict = {
            "scenario": table.scenario,
            "configurations": {
                f"L{int(level)}": row for level, row in table.rows
            },
        }
        if table.labels:
            entry["labels"] = {
                f"L{int(level)}": label for level, label in table.labels.items()
            }
        if table.topology is not None:
            entry["topology"] = table.topology
        payload[table.app] = entry
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def validate_availability(data: dict) -> List[str]:
    """Structural checks for :func:`availability_to_json` output; returns problems."""
    if not data:
        return ["no application in the availability report"]
    problems: List[str] = []
    for app, entry in data.items():
        rows = entry.get("configurations") if isinstance(entry, dict) else None
        if not isinstance(rows, dict) or not rows:
            problems.append(f"{app}: no configurations")
            continue
        for level, row in rows.items():
            for key in ("requests", "errors"):
                value = row.get(key) if isinstance(row, dict) else None
                if not isinstance(value, int) or value < 0:
                    problems.append(f"{app}/{level}: {key} is {value!r}")
    return problems
