"""Latency attribution: fold span tables into flamegraph-ready stacks.

The span table (:mod:`repro.obs.spans`) records *where simulated time
went* for every page request, but the per-request trees are too
fine-grained for "why is p95 high" questions.  This module folds them
two ways:

* :func:`collapse_spans` — the classic collapsed-stack format
  (``frame;frame;frame count`` lines) that Brendan Gregg's
  ``flamegraph.pl`` and speedscope consume directly.  Each span
  contributes its **self time** (duration minus finished children) in
  integer microseconds under its full parent chain, so the flamegraph's
  x-axis is simulated client-path time and the nesting is the real
  causal structure: HTTP over container invocations over RMI over JDBC.
  WAN-crossing spans get a ``[wan]`` frame suffix, which makes wide-area
  time visually separable at every depth.

* :func:`layer_self_times` — the same fold but projected onto coarse
  layers (web / ejb / rmi / jdbc / jms / propagate, each with a ``@wan``
  variant), producing the per-layer attribution table of a bundle's
  ``attribution.txt``.  The workload's accumulated think time can be
  appended by the caller as a ``think`` layer so the attribution
  accounts for the whole session timeline, not just server-side work.

Everything operates on the span rows (``SpanRecorder.to_state()
["spans"]``, a cell's ``measurements["spans"]["spans"]``), so per-cell
folds work on worker-shipped state, and merged output is deterministic:
lines are emitted in sorted order, weights are integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .spans import fold_paths

__all__ = [
    "LAYER_OF",
    "collapse_spans",
    "merge_folded",
    "render_folded",
    "layer_self_times",
    "render_attribution",
    "render_flame_html",
    "validate_attribution",
    "validate_flame_html",
    "validate_flamegraph",
]

#: Span kind -> attribution layer for the coarse per-layer table.
LAYER_OF = {
    "http": "web",
    "invoke": "ejb",
    "rmi": "rmi",
    "jdbc": "jdbc",
    "jms": "jms",
    "jms-delivery": "jms",
    "propagate": "propagate",
}


def _frame(span: dict) -> str:
    frame = f"{span['kind']}:{span['name']}"
    if span["wide_area"]:
        frame += " [wan]"
    return frame


def _self_times_ms(spans: List[dict]) -> Dict[int, float]:
    """Span id -> self time (duration minus finished children), in ms."""
    child_ms: Dict[int, float] = {}
    for span in spans:
        parent_id = span["parent_id"]
        end = span["end"]
        if parent_id is not None and end is not None:
            child_ms[parent_id] = child_ms.get(parent_id, 0.0) + (
                end - span["start"]
            )
    self_ms: Dict[int, float] = {}
    for span in spans:
        end = span["end"]
        if end is None:
            continue
        self_ms[span["id"]] = (end - span["start"]) - child_ms.get(span["id"], 0.0)
    return self_ms


def collapse_spans(spans: List[dict], root_prefix: Optional[str] = None) -> Dict[str, int]:
    """Fold span rows into ``{stack: weight_us}``.

    Weights are each span's self time in integer microseconds (simulated
    1 ms granularity folds without loss; rounding keeps merged artifacts
    integral and therefore byte-stable).  Stacks are semicolon-joined
    parent chains, optionally under ``root_prefix`` — the experiment
    exporter passes the cell label so a multi-cell flamegraph separates
    into one trunk per cell.  Spans whose parent was truncated away root
    their own stack, as in every walk of :func:`~repro.obs.spans.fold_paths`.
    """
    top = (lambda span: f"{root_prefix};{_frame(span)}") if root_prefix else _frame
    stacks = fold_paths(spans, top, lambda stack, span: f"{stack};{_frame(span)}")
    self_ms = _self_times_ms(spans)
    folded: Dict[str, int] = {}
    for span in spans:
        weight = int(round(self_ms.get(span["id"], 0.0) * 1000.0))
        if weight <= 0:
            continue
        stack = stacks[span["id"]]
        folded[stack] = folded.get(stack, 0) + weight
    return folded


def merge_folded(*folds: Dict[str, int]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for fold in folds:
        for stack, weight in fold.items():
            merged[stack] = merged.get(stack, 0) + weight
    return merged


def render_folded(folded: Dict[str, int]) -> str:
    """Collapsed-stack text: one ``stack weight`` line, sorted, final \\n.

    Consumers split on the *last* space, so spaces inside frame names
    (``GET /item``, ``[wan]``) are safe.  Sorting happens on the
    *formatted lines* — the order the validator can recheck without
    reparsing — not on the stacks, which can disagree when one stack is
    a string prefix of another inside a frame name.
    """
    lines = sorted(f"{stack} {weight}" for stack, weight in folded.items())
    return "\n".join(lines) + "\n"


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Per-layer self time in ms; WAN-crossing spans in ``layer@wan``."""
    self_ms = _self_times_ms(spans)
    layers: Dict[str, float] = {}
    for span in spans:
        value = self_ms.get(span["id"], 0.0)
        if value <= 0.0:
            continue
        layer = LAYER_OF.get(span["kind"], span["kind"])
        if span["wide_area"]:
            layer += "@wan"
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


def render_attribution(
    label: str, layers: Dict[str, float], think_ms: float = 0.0
) -> str:
    """Terminal table: where simulated time went, by layer."""
    rows: List[Tuple[str, float]] = sorted(layers.items())
    if think_ms > 0.0:
        rows.append(("think", think_ms))
    total = sum(value for _, value in rows)
    lines = [f"Latency attribution — {label}"]
    if not total:
        lines.append("  (no finished spans)")
        return "\n".join(lines)
    width = max(len(name) for name, _ in rows)
    for name, value in sorted(rows, key=lambda row: (-row[1], row[0])):
        share = 100.0 * value / total
        lines.append(f"  {name:<{width}}  {value:>12.0f} ms  {share:5.1f}%")
    lines.append(f"  {'total':<{width}}  {total:>12.0f} ms  100.0%")
    return "\n".join(lines)


def validate_attribution(text: str) -> List[str]:
    """Blank-line-separated :func:`render_attribution` blocks; returns problems."""
    blocks = [block for block in text.split("\n\n") if block.strip()]
    if not blocks:
        return ["attribution is empty"]
    return [
        f"block {number} does not start with 'Latency attribution'"
        for number, block in enumerate(blocks, 1)
        if not block.startswith("Latency attribution — ")
    ]


_HTML_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Latency flamegraph</title>
<style>
body {{ font: 13px sans-serif; margin: 16px; }}
.frame {{ position: absolute; height: 18px; overflow: hidden;
  white-space: nowrap; font-size: 11px; line-height: 18px;
  border: 1px solid #fff; box-sizing: border-box; cursor: default;
  background: #f2a93b; }}
.frame.wan {{ background: #d9534f; color: #fff; }}
#chart {{ position: relative; }}
</style></head>
<body>
<h3>Latency flamegraph (simulated time, self-time weighted)</h3>
<p>{summary}</p>
<div id="chart" style="height: {height}px">
{frames}
</div>
</body></html>
"""


def render_flame_html(folded: Dict[str, int]) -> str:
    """Self-contained HTML flamegraph (no external JS; icicle layout).

    Deliberately minimal — the collapsed-stack export is the tool-grade
    artifact (speedscope / flamegraph.pl render it interactively); this
    renderer exists so a run's attribution can be eyeballed with nothing
    but a browser.
    """
    # Aggregate total weight per stack prefix to size parent frames.
    totals: Dict[str, int] = {}
    depth_max = 0
    for stack, weight in folded.items():
        frames = stack.split(";")
        depth_max = max(depth_max, len(frames))
        for depth in range(1, len(frames) + 1):
            prefix = ";".join(frames[:depth])
            totals[prefix] = totals.get(prefix, 0) + weight
    # Every self-weight belongs to exactly one root, so the root row's
    # combined width is exactly the sum of all folded weights.
    grand = sum(folded.values())

    divs: List[str] = []
    offsets: Dict[str, float] = {}
    for prefix in sorted(totals):
        frames = prefix.split(";")
        depth = len(frames)
        parent = ";".join(frames[:-1])
        left = offsets.get(parent, 0.0)
        offsets.setdefault(parent, 0.0)
        width = 100.0 * totals[prefix] / grand if grand else 0.0
        offsets[prefix] = left
        offsets[parent] = left + width
        name = frames[-1]
        css = "frame wan" if "[wan]" in name else "frame"
        divs.append(
            f'<div class="{css}" style="left:{left:.3f}%;'
            f"top:{(depth - 1) * 19}px;width:{width:.3f}%\" "
            f'title="{name} — {totals[prefix]} us">{name}</div>'
        )
    summary = f"{len(folded)} stacks, {sum(folded.values())} us total self time"
    return _HTML_PAGE.format(
        summary=summary, height=depth_max * 19 + 4, frames="\n".join(divs)
    )


def validate_flame_html(text: str) -> List[str]:
    """A :func:`render_flame_html` page; returns problems."""
    if not text.startswith("<!DOCTYPE html>") or '<div id="chart"' not in text:
        return ["not a flamegraph HTML page"]
    return []


def validate_flamegraph(text: str) -> List[str]:
    """Structural checks for collapsed-stack text; returns problems."""
    problems: List[str] = []
    lines = [line for line in text.split("\n") if line]
    if not lines:
        return ["flamegraph is empty"]
    for number, line in enumerate(lines, 1):
        stack, _, weight = line.rpartition(" ")
        if not stack:
            problems.append(f"line {number}: no stack before the weight")
            continue
        try:
            if int(weight) <= 0:
                problems.append(f"line {number}: non-positive weight {weight}")
        except ValueError:
            problems.append(f"line {number}: weight {weight!r} is not an integer")
    if lines != sorted(lines):
        problems.append("stacks are not in sorted order")
    return problems
