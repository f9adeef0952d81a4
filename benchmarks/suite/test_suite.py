"""The suite's own tests (not tier-1: ``benchmarks/`` is outside ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Runs the smoke benchmark twice under different ``PYTHONHASHSEED`` values
(~40 s each): both results files must validate, and every exact count
and simulated fingerprint must agree between them - the property that
lets a later change gate on counts where it cannot gate on wall clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
sys.path.insert(0, str(SUITE_DIR))

import layers  # noqa: E402
import metrics  # noqa: E402
import validate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_source_file_belongs_to_exactly_one_layer():
    package = layers.SRC_ROOT / "repro"
    files = sorted(path.relative_to(package).as_posix() for path in package.rglob("*.py"))
    assert files, f"no sources under {package}"
    wrong = {f: layers.layers_matching(f) for f in files if len(layers.layers_matching(f)) != 1}
    assert not wrong, f"files claimed by no layer or by several: {wrong}"
    assert {layer for f in files for layer in layers.layers_matching(f)} <= set(layers.LAYERS)


def test_benchmark_json_names_what_the_suite_computes():
    spec = validate.load_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    names = [m["name"] for m in (*spec["end_to_end"], *spec["per_layer"])]
    assert len(names) == len(set(names))
    assert len(spec["per_layer"]) <= 128
    assert all(validate.NAME.match(name) for name in names)


@pytest.fixture(scope="module")
def smoke_pair():
    """Two smoke runs of the same seed under different hash seeds."""
    results = []
    for hash_seed in ("1", "2"):
        output = REPO_ROOT / ".benchmarks" / f"test-smoke-{hash_seed}.json"
        subprocess.run(
            [sys.executable, str(SUITE_DIR / "run.py"), "--smoke", "--output", str(output)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            check=True,
            stdout=subprocess.DEVNULL,
        )
        results.append(json.loads(output.read_text()))
    return results


def test_smoke_results_validate(smoke_pair):
    spec = validate.load_spec()
    for results in smoke_pair:
        assert validate.check(results, spec) == []
        assert results["manifest"]["smoke"] and results["manifest"]["trace"]
        assert results["spans"], "phase spans were not written"


def test_exact_values_do_not_depend_on_the_hash_seed(smoke_pair):
    first, second = smoke_pair
    for workload in WORKLOADS:
        a, b = first["workloads"][workload.name], second["workloads"][workload.name]
        assert validate.exact_differences(a, b) == []
        assert a["trace"]["sim_fingerprint"] == b["trace"]["sim_fingerprint"]
        for metric in metrics.END_TO_END:
            if metric.kind != "host":
                assert a["end_to_end"][metric.name]["value"] == b["end_to_end"][metric.name]["value"]
        assert a["error_share"] == 0.0


def test_traced_shares_are_a_partition(smoke_pair):
    for results in smoke_pair:
        for entry in results["workloads"].values():
            shares = [
                body["value"] for name, body in entry["per_layer"].items()
                if name.endswith(".self_share")
            ]
            assert abs(sum(shares) - 1.0) <= 0.001
            assert entry["per_layer"]["other.self_share"]["value"] <= 0.02
            assert "interpreter.self_share" not in entry["per_layer"]
