"""Declarative SLOs evaluated per telemetry window, with burn rates.

An objectives file is plain JSON::

    {"objectives": [
        {"name": "browse-p95", "metric": "p95", "page": null, "max_ms": 2000},
        {"name": "availability", "metric": "availability", "target": 0.99}
    ]}

* ``metric: "pXX"`` (or ``"pXX.X"``) — the windowed response-time
  quantile for ``page`` (``null``/absent means the ``_all`` aggregate)
  must stay at or below ``max_ms``;
* ``metric: "availability"`` — successful responses over attempted
  requests per window must stay at or above ``target``.

Each window gets a compliance verdict plus a **burn rate**: the ratio of
the window's bad fraction to the objective's error budget, the standard
multi-window-burn formulation (burn 1.0 = exactly consuming budget,
large = an incident).  For latency objectives the bad fraction is the
interpolated histogram mass above ``max_ms`` and the budget is ``1 - q``
— so a p95 objective burns at rate ``P(late) / 0.05``.

Fault-schedule windows stamped on the series (see
:meth:`MeasurementStore.install_sampler`) are overlaid: each evaluated window
is flagged ``in_fault`` and, per fault window, **recovery time** is
reported — simulated ms from fault end until the first fully compliant
window at or after it.  That makes "how long until the system was back
inside its SLO" a first-class number instead of something eyeballed off
a chart.

Everything here is pure arithmetic on the series state dict, so reports
are deterministic and byte-identical however the series was produced.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .metrics import Histogram

__all__ = [
    "SloError",
    "load_slo",
    "parse_objectives",
    "evaluate_slo",
    "render_slo_report",
    "validate_slo",
]


class SloError(ValueError):
    """An objectives file that cannot be evaluated."""


def parse_objectives(data: dict) -> List[dict]:
    """Validate raw objectives JSON into normalized objective dicts."""
    if not isinstance(data, dict) or not isinstance(data.get("objectives"), list):
        raise SloError("objectives file must be {'objectives': [...]}")
    if not data["objectives"]:
        raise SloError("objectives list is empty")
    parsed: List[dict] = []
    seen = set()
    for raw in data["objectives"]:
        if not isinstance(raw, dict):
            raise SloError(f"objective must be an object, got {raw!r}")
        name = raw.get("name")
        metric = raw.get("metric")
        if not name or not isinstance(name, str):
            raise SloError(f"objective missing a name: {raw!r}")
        if name in seen:
            raise SloError(f"duplicate objective name {name!r}")
        seen.add(name)
        if metric == "availability":
            target = raw.get("target")
            if not isinstance(target, (int, float)) or not 0.0 < target < 1.0:
                # target == 1.0 would make the error budget zero and the
                # burn rate infinite (not JSON-representable).
                raise SloError(
                    f"objective {name!r}: target must be in (0, 1), got {target!r}"
                )
            parsed.append(
                {"name": name, "metric": "availability", "target": float(target)}
            )
            continue
        if not isinstance(metric, str) or not metric.startswith("p"):
            raise SloError(
                f"objective {name!r}: metric must be 'availability' or 'pXX'"
            )
        try:
            quantile = float(metric[1:]) / 100.0
        except ValueError:
            raise SloError(f"objective {name!r}: bad quantile metric {metric!r}")
        if not 0.0 < quantile < 1.0:
            raise SloError(
                f"objective {name!r}: quantile must be in (0, 100) exclusive"
            )
        max_ms = raw.get("max_ms")
        if not isinstance(max_ms, (int, float)) or max_ms <= 0:
            raise SloError(
                f"objective {name!r}: max_ms must be positive, got {max_ms!r}"
            )
        page = raw.get("page")
        if page is not None and not isinstance(page, str):
            raise SloError(f"objective {name!r}: page must be a string or null")
        parsed.append(
            {
                "name": name,
                "metric": metric,
                "quantile": quantile,
                "page": page,
                "max_ms": float(max_ms),
            }
        )
    return parsed


def load_slo(path: str) -> List[dict]:
    """Read and validate an objectives file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return parse_objectives(data)


def _window_histogram(entry: dict, key: str, bounds) -> Optional[Histogram]:
    data = entry.get("quantiles", {}).get(key)
    if data is None or not data["count"]:
        return None
    histogram = Histogram(bounds)
    histogram.counts = list(data["counts"])
    histogram.count = data["count"]
    histogram.total = data["sum"]
    return histogram


def _overlaps(start: float, end: float, window: dict) -> bool:
    return start < window["end"] and end > window["start"]


def evaluate_slo(series_state: dict, objectives: List[dict]) -> dict:
    """Evaluate objectives against one cell's series state.

    Returns a JSON-safe report: per objective, the per-window verdicts
    (window start ms, measured value, ok flag, burn rate, in_fault flag)
    plus totals — windows evaluated, windows violated, mean burn — and,
    when the series carries fault windows, per-fault recovery times.
    """
    interval = float(series_state["interval_ms"])
    bounds = tuple(series_state["bounds"])
    fault_windows = series_state.get("fault_windows", [])
    windows = series_state.get("windows", {})
    indices = sorted(int(key) for key in windows)

    report: dict = {"interval_ms": interval, "objectives": {}}
    for objective in objectives:
        rows = []
        for index in indices:
            entry = windows[str(index)]
            start = index * interval
            end = start + interval
            if objective["metric"] == "availability":
                counters = entry.get("counters", {})
                responses = counters.get("responses", 0)
                errors = counters.get("requests.errors", 0)
                total = responses + errors
                if not total:
                    continue
                value = responses / total
                ok = value >= objective["target"]
                budget = 1.0 - objective["target"]
                burn = (errors / total) / budget
            else:
                key = objective["page"] or "_all"
                histogram = _window_histogram(entry, key, bounds)
                if histogram is None:
                    continue
                value = histogram.percentile(objective["quantile"])
                ok = value <= objective["max_ms"]
                bad_fraction = 1.0 - histogram.cdf(objective["max_ms"])
                burn = bad_fraction / (1.0 - objective["quantile"])
            rows.append(
                {
                    "start_ms": start,
                    "value": value,
                    "ok": ok,
                    "burn": burn,
                    "in_fault": any(_overlaps(start, end, w) for w in fault_windows),
                }
            )
        violated = sum(1 for row in rows if not row["ok"])
        total_burn = sum(row["burn"] for row in rows)
        entry: dict = {
            "windows": rows,
            "evaluated": len(rows),
            "violated": violated,
            "mean_burn": total_burn / len(rows) if rows else 0.0,
        }
        if fault_windows:
            recoveries = []
            for fault in fault_windows:
                recovery_ms = None
                for row in rows:
                    if row["start_ms"] >= fault["end"] and row["ok"]:
                        recovery_ms = row["start_ms"] - fault["end"]
                        break
                recoveries.append(
                    {
                        "fault": f"{fault['kind']}:{fault['label']}",
                        "start_ms": fault["start"],
                        "end_ms": fault["end"],
                        "recovery_ms": recovery_ms,
                    }
                )
            entry["recovery"] = recoveries
        report["objectives"][objective["name"]] = entry
    return report


def render_slo_report(label: str, report: dict) -> str:
    """Terminal rendering of one cell's SLO evaluation."""
    lines = [f"SLO report — {label}"]
    for name in sorted(report["objectives"]):
        entry = report["objectives"][name]
        verdict = "OK" if not entry["violated"] else "VIOLATED"
        lines.append(
            f"  {name}: {verdict} "
            f"({entry['violated']}/{entry['evaluated']} windows out of SLO, "
            f"mean burn {entry['mean_burn']:.2f})"
        )
        worst = [row for row in entry["windows"] if not row["ok"]]
        if worst:
            peak = max(worst, key=lambda row: row["burn"])
            flag = " [fault]" if peak["in_fault"] else ""
            lines.append(
                f"    worst window @ {peak['start_ms'] / 1000.0:.0f}s: "
                f"value {peak['value']:.1f}, burn {peak['burn']:.1f}{flag}"
            )
        for recovery in entry.get("recovery", ()):
            if recovery["recovery_ms"] is None:
                took = "never recovered"
            else:
                took = f"recovered in {recovery['recovery_ms'] / 1000.0:.0f}s"
            lines.append(
                f"    after {recovery['fault']} "
                f"(ends {recovery['end_ms'] / 1000.0:.0f}s): {took}"
            )
    return "\n".join(lines)


def validate_slo(data: dict) -> List[str]:
    """Structural checks for an SLO report artifact; returns problems."""
    problems: List[str] = []
    reports = data.get("slo")
    if not isinstance(reports, dict) or not reports:
        return ["top-level 'slo' must be a non-empty object"]
    for label, report in reports.items():
        objectives = report.get("objectives")
        if not isinstance(objectives, dict):
            problems.append(f"{label}: missing objectives")
            continue
        for name, entry in objectives.items():
            where = f"{label}/{name}"
            rows = entry.get("windows")
            if not isinstance(rows, list):
                problems.append(f"{where}: windows must be a list")
                continue
            if entry.get("evaluated") != len(rows):
                problems.append(f"{where}: evaluated count mismatch")
            violated = sum(1 for row in rows if not row.get("ok"))
            if entry.get("violated") != violated:
                problems.append(f"{where}: violated count mismatch")
            starts = [row.get("start_ms") for row in rows]
            if starts != sorted(starts):
                problems.append(f"{where}: windows not sorted by start_ms")
            for row in rows:
                if row.get("burn", 0) < 0:
                    problems.append(f"{where}: negative burn rate")
                    break
            for recovery in entry.get("recovery", ()):
                if recovery.get("end_ms", 0) < recovery.get("start_ms", 0):
                    problems.append(f"{where}: fault window ends before start")
    return problems
