"""The artifact bundle a sweep writes with ``--out DIR``.

:data:`BUNDLE` is the one list of the bundle's files: each name maps to
the function that renders the file's text from a :class:`Sweep` and the
function that checks that text.  The experiments CLI writes the bundle
from it (:func:`write_bundle`) and ``python -m repro.obs.validate DIR``
checks it from it, so a file cannot be written without a check or
checked under another name.

* ``trace.json`` — Chrome trace-event JSON (the format
  ``chrome://tracing`` and Perfetto load): one process row per
  (application, level) cell, one thread row per simulated node, one
  complete ("ph": "X") event per span with the span/parent ids in
  ``args`` so the causal tree survives the export.
* ``metrics.json`` / ``series.json`` — each cell's metrics-registry
  snapshot and per-window series.
* ``flame.txt`` / ``flame.html`` / ``attribution.txt`` — the span trees
  folded into collapsed stacks, an HTML flamegraph and the per-layer
  latency attribution (:mod:`repro.obs.flame`).
* ``slo.json`` (with ``--slo``) and ``availability.json`` (with
  ``--faults``) — the reports the CLI also prints.  A run without the
  flag removes the file, so ``--out`` into an earlier run's directory
  leaves no stale report behind.

Every file is rendered from canonically ordered inputs (the JSON ones
with sorted keys and fixed separators), so serial and parallel sweeps
write byte-identical bundles — the same contract the tables and figures
honour.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..faults.report import availability_to_json, validate_availability
from .flame import (
    collapse_spans,
    layer_self_times,
    merge_folded,
    render_attribution,
    render_flame_html,
    render_folded,
    validate_attribution,
    validate_flame_html,
    validate_flamegraph,
)
from .slo import validate_slo

__all__ = [
    "BUNDLE",
    "Sweep",
    "canonical_json",
    "chrome_trace_events",
    "validate_chrome_trace",
    "validate_metrics",
    "validate_series",
    "write_bundle",
]

# Simulation timestamps are milliseconds; trace-event ts/dur are
# microseconds.
_US_PER_MS = 1000.0


def _cell_events(pid: int, label: str, spans_state: dict) -> List[dict]:
    spans = spans_state["spans"]
    nodes = sorted({span["node"] for span in spans})
    tids = {node: index + 1 for index, node in enumerate(nodes)}
    events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": label},
        }
    ]
    for node in nodes:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tids[node],
                "name": "thread_name",
                "args": {"name": node},
            }
        )
    for span in spans:
        end = span["end"]
        start = span["start"]
        args = {
            "span_id": span["id"],
            "parent_id": span["parent_id"],
            "request_id": span["request_id"],
            "wide_area": span["wide_area"],
        }
        for key in ("page", "group", "target", "method"):
            if key in span:
                args[key] = span[key]
        if end is None:
            args["unfinished"] = True
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tids[span["node"]],
                "ts": start * _US_PER_MS,
                "dur": ((end if end is not None else start) - start) * _US_PER_MS,
                "name": span["name"],
                "cat": span["kind"],
                "args": args,
            }
        )
    return events


def chrome_trace_events(cells: List[Tuple[str, dict]]) -> dict:
    """Trace-event JSON object for labelled cell span states.

    ``cells`` is ``[(label, measurements["spans"]), ...]``; labels become process
    rows in the order given (callers pass canonical cell order).
    """
    events: List[dict] = []
    dropped = 0
    for index, (label, spans_state) in enumerate(cells):
        events.extend(_cell_events(index + 1, label, spans_state))
        dropped += spans_state["dropped"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.obs",
            "dropped_spans": dropped,
        },
    }


def canonical_json(data: object) -> str:
    """Sorted keys, compact separators, one final newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Validation (shared by tests and `python -m repro.obs.validate`)
# ---------------------------------------------------------------------------


def validate_chrome_trace(data: object) -> List[str]:
    """Schema problems of an exported trace; empty list means valid.

    Checks the trace-event envelope, per-event required fields, span-id
    uniqueness and parent resolvability, and that at least one *complete*
    span tree exists: an HTTP root with at least one finished descendant.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["top level is not an object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]

    spans: Dict[Tuple[int, int], dict] = {}  # (pid, span_id) -> event
    children: Dict[Tuple[int, int], int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for field in ("ph", "pid", "tid", "name"):
            if field not in event:
                problems.append(f"event {index} missing {field!r}")
        phase = event.get("ph")
        if phase == "X":
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    problems.append(f"event {index} has non-numeric {field!r}")
            if (event.get("dur") or 0) < 0:
                problems.append(f"event {index} has negative duration")
            args = event.get("args")
            if not isinstance(args, dict) or "span_id" not in args:
                problems.append(f"event {index} lacks args.span_id")
                continue
            key = (event["pid"], args["span_id"])
            if key in spans:
                problems.append(f"duplicate span id {key}")
            spans[key] = event
        elif phase not in ("M",):
            problems.append(f"event {index} has unsupported phase {phase!r}")

    complete_trees = 0
    for (pid, _span_id), event in spans.items():
        parent = event["args"].get("parent_id")
        if parent is not None:
            if (pid, parent) not in spans:
                problems.append(
                    f"span {event['args']['span_id']} (pid {pid}) has "
                    f"unresolvable parent {parent}"
                )
            else:
                children[(pid, parent)] = children.get((pid, parent), 0) + 1
    for (pid, span_id), event in spans.items():
        args = event["args"]
        if (
            args.get("parent_id") is None
            and event.get("cat") == "http"
            and children.get((pid, span_id), 0) >= 1
            and not args.get("unfinished")
        ):
            complete_trees += 1
    if not spans:
        problems.append("trace contains no spans")
    elif complete_trees == 0:
        problems.append("trace contains no complete span tree (http root with children)")
    return problems


def validate_metrics(data: object) -> List[str]:
    """Schema problems of an exported metrics dump; empty means valid."""
    problems: List[str] = []
    if not isinstance(data, dict) or "cells" not in data:
        return ["top level is not an object with a 'cells' key"]
    cells = data["cells"]
    if not isinstance(cells, dict) or not cells:
        return ["'cells' is empty or not an object"]
    for label, state in cells.items():
        if not isinstance(state, dict):
            problems.append(f"cell {label!r} is not an object")
            continue
        for section in ("counters", "gauges", "histograms"):
            if section not in state:
                problems.append(f"cell {label!r} missing {section!r}")
                continue
            if list(state[section]) != sorted(state[section]):
                problems.append(f"cell {label!r} {section} keys not sorted")
        for name, value in state.get("counters", {}).items():
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"cell {label!r} counter {name!r} invalid: {value!r}")
        for name, hist in state.get("histograms", {}).items():
            if not isinstance(hist, dict) or hist.get("count") != sum(
                hist.get("counts", ())
            ):
                problems.append(f"cell {label!r} histogram {name!r} inconsistent")
    return problems


def validate_series(data: object) -> List[str]:
    """Schema problems of an exported time-series dump; empty means valid."""
    problems: List[str] = []
    if not isinstance(data, dict) or "series" not in data:
        return ["top level is not an object with a 'series' key"]
    cells = data["series"]
    if not isinstance(cells, dict) or not cells:
        return ["'series' is empty or not an object"]
    for label, state in cells.items():
        if not isinstance(state, dict):
            problems.append(f"cell {label!r} is not an object")
            continue
        interval = state.get("interval_ms")
        if not isinstance(interval, (int, float)) or interval <= 0:
            problems.append(f"cell {label!r}: interval_ms must be positive")
        bounds = state.get("bounds")
        if not isinstance(bounds, list) or bounds != sorted(bounds):
            problems.append(f"cell {label!r}: bounds missing or unsorted")
            bounds = []
        windows = state.get("windows")
        if not isinstance(windows, dict):
            problems.append(f"cell {label!r}: missing windows object")
            continue
        for key, entry in windows.items():
            where = f"cell {label!r} window {key!r}"
            try:
                int(key)
            except (TypeError, ValueError):
                problems.append(f"{where}: key is not an integer")
                continue
            for section in ("counters", "gauges", "quantiles"):
                names = list(entry.get(section, {}))
                if names != sorted(names):
                    problems.append(f"{where}: {section} keys not sorted")
            for name, hist in entry.get("quantiles", {}).items():
                counts = hist.get("counts", ())
                if hist.get("count") != sum(counts):
                    problems.append(f"{where}: quantile {name!r} count mismatch")
                if bounds and len(counts) != len(bounds) + 1:
                    problems.append(
                        f"{where}: quantile {name!r} has {len(counts)} buckets "
                        f"for {len(bounds)} bounds"
                    )
        for fault in state.get("fault_windows", ()):
            if fault.get("end", 0) <= fault.get("start", 0):
                problems.append(
                    f"cell {label!r}: fault window {fault.get('label')!r} "
                    "ends before it starts"
                )
    return problems




# ---------------------------------------------------------------------------
# The bundle (written by the experiments CLI, checked by
# `python -m repro.obs.validate DIR`)
# ---------------------------------------------------------------------------


class Sweep(NamedTuple):
    """What a bundle is rendered from.

    ``cells`` is the sweep's ``(label, CellResult)`` pairs in canonical
    order, run with spans and the series sampler on.  ``slo`` maps each
    label to its SLO report (``--slo``) and ``availability`` lists the
    per-app availability tables (``--faults``); ``None`` when not run.
    """

    cells: List[Tuple[str, object]]
    slo: Optional[dict] = None
    availability: Optional[list] = None


class BundleFile(NamedTuple):
    #: The file's text, or ``None`` when the sweep has no such report.
    render: Callable[[Sweep], Optional[str]]
    #: Problems in the file's text; an empty list means valid.
    validate: Callable[[str], List[str]]
    #: Written only for some sweeps, so a bundle may lack it.
    optional: bool = False


def _json(validate: Callable[[dict], List[str]]) -> Callable[[str], List[str]]:
    def check(text: str) -> List[str]:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            return [f"not JSON: {error}"]
        if not isinstance(data, dict):
            return ["top level is not an object"]
        return validate(data)

    return check


def _by_label(sweep: Sweep, read: Callable[[object], object]) -> dict:
    return {label: read(result) for label, result in sweep.cells}


def _folded(sweep: Sweep) -> Dict[str, int]:
    return merge_folded(
        *(
            collapse_spans(result.measurements["spans"]["spans"], root_prefix=label)
            for label, result in sweep.cells
        )
    )


def _attribution(sweep: Sweep) -> str:
    """One latency-attribution block per cell, think time included."""
    blocks = []
    for label, result in sweep.cells:
        windows = result.measurements["series"]["windows"].values()
        think = sum(entry.get("counters", {}).get("think_ms", 0) for entry in windows)
        layers = layer_self_times(result.measurements["spans"]["spans"])
        blocks.append(render_attribution(label, layers, think_ms=think))
    return "\n\n".join(blocks) + "\n"


BUNDLE: Dict[str, BundleFile] = {
    "trace.json": BundleFile(
        lambda sweep: canonical_json(
            chrome_trace_events(
                [(label, result.measurements["spans"]) for label, result in sweep.cells]
            )
        ),
        _json(validate_chrome_trace),
    ),
    "metrics.json": BundleFile(
        lambda sweep: canonical_json(
            {"cells": _by_label(sweep, lambda result: result.measurements["metrics"])}
        ),
        _json(validate_metrics),
    ),
    "series.json": BundleFile(
        lambda sweep: canonical_json(
            {"series": _by_label(sweep, lambda result: result.measurements["series"])}
        ),
        _json(validate_series),
    ),
    "flame.txt": BundleFile(
        lambda sweep: render_folded(_folded(sweep)), validate_flamegraph
    ),
    "flame.html": BundleFile(
        lambda sweep: render_flame_html(_folded(sweep)), validate_flame_html
    ),
    "attribution.txt": BundleFile(_attribution, validate_attribution),
    "slo.json": BundleFile(
        lambda sweep: None if sweep.slo is None else canonical_json({"slo": sweep.slo}),
        _json(validate_slo),
        optional=True,
    ),
    "availability.json": BundleFile(
        lambda sweep: None
        if sweep.availability is None
        else availability_to_json(sweep.availability),
        _json(validate_availability),
        optional=True,
    ),
}


def write_bundle(directory: str, sweep: Sweep) -> List[str]:
    """Write ``sweep``'s files into the existing ``directory``; returns their names.

    An optional file this sweep does not render is removed, so a bundle
    never mixes this run's files with an earlier run's.
    """
    written = []
    for name, entry in BUNDLE.items():
        text = entry.render(sweep)
        path = os.path.join(directory, name)
        if text is None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        written.append(name)
    return written
