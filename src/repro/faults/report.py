"""The per-configuration availability/degradation report.

``collect_resilience`` condenses one finished run into a canonical plain
dict (picklable, sorted keys) carried on ``CellResult`` next to the
measurement store's state; ``build_availability_table`` /
``render_availability_table`` turn a five-configuration series of those
dicts into the availability table printed alongside Tables 6–7 when a
fault scenario is active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.patterns import PatternLevel, level_name
from ..obs.metrics import collect_cache_stats

__all__ = [
    "collect_resilience",
    "AvailabilityTable",
    "build_availability_table",
    "render_availability_table",
    "availability_to_json",
    "validate_availability",
]


def collect_resilience(system, generator=None) -> dict:
    """Snapshot the deployment's resilience counters (canonical dict).

    Always cheap and always collected — in a fault-free run every value
    is zero, which is itself evidence the run was clean.  Closes any
    still-open staleness windows at the current sim time first.
    """
    stats = system.resilience
    data: dict = {
        "requests": 0,
        "errors": 0,
        "failovers": 0,
    }
    if generator is not None:
        data["requests"] = generator.total_requests()
        data["errors"] = generator.errors
        data["failovers"] = generator.failovers
        # Dropped arrivals are a resilience fact of their own (always 0
        # on the closed loop, whose clients never drop).
        data["dropped_sessions"] = generator.dropped_sessions
    if stats is not None:
        stats.finalize(system.env.now)
        data.update(stats.to_dict())
    cluster = system.cluster
    if cluster is not None:
        # Only present for data-tier policies, so every artifact of a
        # single-instance run stays byte-identical to pre-cluster output.
        data["cluster"] = cluster.stats.to_dict()
    method_cache: dict = {}
    for counters in collect_cache_stats(system).get("method_cache", {}).values():
        for key, value in counters.items():
            if key == "staleness_max_ms":
                method_cache[key] = max(method_cache.get(key, 0.0), value)
            else:
                method_cache[key] = method_cache.get(key, 0) + value
    if method_cache:
        # Only present under level 6, same byte-identity discipline.
        data["method_cache"] = method_cache
    return data


@dataclass(frozen=True)
class AvailabilityTable:
    """One application's availability grid under one fault scenario."""

    app: str
    scenario: str
    # ((level, resilience dict), ...) in ascending level order.
    rows: Tuple[Tuple[PatternLevel, dict], ...]
    # Custom row labels (custom-policy runs); absent levels use level_name.
    labels: Dict[PatternLevel, str] = field(default_factory=dict)
    # Effective topology of the series' runs (edge count, WAN knobs).
    topology: Optional[dict] = None

    def row_label(self, level: PatternLevel) -> str:
        return self.labels.get(PatternLevel(level)) or level_name(level)


def build_availability_table(app: str, series: Dict, scenario: str = "") -> AvailabilityTable:
    """Assemble the table from a run series (results carry ``resilience``)."""
    rows = []
    labels: Dict[PatternLevel, str] = {}
    topology = None
    for level in sorted(series, key=int):
        result = series[level]
        resilience = result.resilience or {}
        rows.append((PatternLevel(level), resilience))
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
