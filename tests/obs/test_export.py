"""Chrome trace export: schema validity, determinism, and the bundle gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.runner import run_configuration, run_series
from repro.obs.export import (
    BUNDLE,
    Sweep,
    canonical_json,
    chrome_trace_events,
    validate_chrome_trace,
    write_bundle,
)

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)


@pytest.fixture(scope="module")
def facade_cell():
    """Recorded as ``--out`` records: spans and the series sampler on."""
    return run_configuration(
        "petstore",
        PatternLevel.REMOTE_FACADE,
        workload=FAST,
        seed=7,
        with_spans=True,
        obs_interval_ms=1000.0,
    )


@pytest.fixture(scope="module")
def facade_spans_state(facade_cell):
    return facade_cell.measurements["spans"]


def test_chrome_trace_schema(facade_spans_state):
    data = chrome_trace_events([("petstore/L2", facade_spans_state)])
    assert validate_chrome_trace(data) == []
    events = data["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert complete and metadata
    # Process row named after the cell, thread rows after nodes.
    assert any(
        e["name"] == "process_name" and e["args"]["name"] == "petstore/L2"
        for e in metadata
    )
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert "span_id" in event["args"]
    # Microsecond conversion: span at t=5ms renders at ts=5000.
    first_http = next(e for e in complete if e.get("cat") == "http")
    source = facade_spans_state["spans"][first_http["args"]["span_id"] - 1]
    assert first_http["ts"] == pytest.approx(source["start"] * 1000.0)


def test_chrome_trace_has_complete_span_trees(facade_spans_state):
    data = chrome_trace_events([("cell", facade_spans_state)])
    spans = {
        e["args"]["span_id"]: e for e in data["traceEvents"] if e["ph"] == "X"
    }
    roots = [
        e for e in spans.values()
        if e["args"]["parent_id"] is None and e.get("cat") == "http"
    ]
    assert roots
    children = set()
    for event in spans.values():
        parent = event["args"]["parent_id"]
        if parent is not None:
            assert parent in spans  # every parent resolvable
            children.add(parent)
    assert any(r["args"]["span_id"] in children for r in roots)


def test_export_writes_canonical_json(facade_spans_state):
    text = canonical_json(chrome_trace_events([("cell", facade_spans_state)]))
    data = json.loads(text)
    assert validate_chrome_trace(data) == []
    # Canonical form: compact separators, sorted keys, trailing newline.
    assert text.endswith("\n")
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_validate_rejects_broken_traces():
    assert validate_chrome_trace([]) == ["top level is not an object"]
    assert validate_chrome_trace({}) == ["missing traceEvents array"]
    no_tree = {
        "traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0, "dur": 1,
             "args": {"span_id": 1, "parent_id": 99}},
        ]
    }
    problems = validate_chrome_trace(no_tree)
    assert any("unresolvable parent" in p for p in problems)
    assert any("no complete span tree" in p for p in problems)


def test_validate_cli_gates_artifacts(tmp_path, facade_cell):
    good = tmp_path / "good"
    bad = tmp_path / "bad"
    for directory in (good, bad):
        directory.mkdir()
        write_bundle(str(directory), Sweep([("petstore/L2", facade_cell)]))
    (bad / "trace.json").write_text('{"traceEvents": []}')

    def run_validate(directory):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(directory)],
            capture_output=True, text=True, env=env,
        )

    ok = run_validate(good)
    assert ok.returncode == 0 and "trace.json: ok" in ok.stdout
    fail = run_validate(bad)
    assert fail.returncode == 1
    assert "trace.json: INVALID" in fail.stderr
    assert "metrics.json: ok" in fail.stdout


@pytest.mark.parametrize("name", sorted(BUNDLE))
def test_every_bundle_validator_rejects_an_empty_file(name):
    assert BUNDLE[name].validate("")


def test_trace_export_byte_identical_serial_vs_parallel():
    levels = [PatternLevel.CENTRALIZED, PatternLevel.REMOTE_FACADE]
    serial = run_series(
        "petstore", levels=levels, workload=FAST, seed=21,
        with_spans=True, jobs=1,
    )
    parallel = run_series(
        "petstore", levels=levels, workload=FAST, seed=21,
        with_spans=True, jobs=2,
    )

    def cells(results):
        return [
            (f"petstore/L{int(level)}", results[level].measurements["spans"])
            for level in levels
        ]

    serial_text, parallel_text = (
        canonical_json(chrome_trace_events(cells(results)))
        for results in (serial, parallel)
    )
    assert serial_text == parallel_text


def test_trace_summary_render_reports_dropped():
    """The CLI's ``[trace]`` line counts spans by kind and states drops."""
    from repro.experiments.__main__ import _span_digest
    from repro.obs.spans import SpanRecorder

    recorder = SpanRecorder(max_spans=2)
    recorder.start_span("http", "GET x", node="a", time=0.0)
    for index in range(3):
        recorder.start_span("rmi", "X.m", node="a", time=float(index), wide_area=True)
    assert _span_digest(recorder.to_state()) == (
        "2 spans (http=1 rmi=1), 1 wide-area, 2 dropped"
    )
