"""Check a results file against ``BENCHMARK.json``; compare two of them.

    python benchmarks/suite/validate.py check .benchmarks/suite-....json
    python benchmarks/suite/validate.py compare BEFORE.json AFTER.json

``check`` verifies that a results file is complete: every workload and
every metric ``BENCHMARK.json`` names is there with the unit it names,
host-time metrics carry their n and quartiles, and every output check
passed.  Per-layer metrics of the traced run and the micro-benchmarks
exist only in a file written with ``--trace``; without it ``check`` says
so and checks the rest.

``compare`` prints one row per (workload, end-to-end metric):

* ``same``        the second median is no worse than the first by more
                  than the metric's bound;
* ``worse``       it is;
* ``unresolved``  it is not, but the run-to-run spread of either file is
                  wider than the bound, so "same" would claim more than
                  the runs show.

Simulated results and exact counts are held to equality, not to a
bound, when both files ran the same seed at the same scale: a change to
the host's speed must not move them.  Every exact value that differs is
listed.  Both commands exit non-zero on a finding.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SUMMARY_KEYS = ("n", "min", "q1", "q3", "max")


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def load_spec() -> dict:
    return load(str(REPO_ROOT / "BENCHMARK.json"))


def check(results: dict, spec: dict) -> List[str]:
    """Everything wrong with ``results``; empty when it is complete."""
    problems: List[str] = []
    traced = results["manifest"]["trace"]
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = results["workloads"].get(name)
        if entry is None:
            problems.append(f"{name}: workload absent")
            continue
        for metric in spec["end_to_end"]:
            body = entry["end_to_end"].get(metric["name"])
            if body is None:
                problems.append(f"{name}: end-to-end metric {metric['name']} absent")
                continue
            if body["unit"] != metric["unit"]:
                problems.append(
                    f"{name}: {metric['name']} has unit {body['unit']!r}, "
                    f"BENCHMARK.json says {metric['unit']!r}"
                )
            missing = [key for key in SUMMARY_KEYS if key not in body]
            if missing:
                problems.append(f"{name}: {metric['name']} lacks {', '.join(missing)}")
        for metric in spec["per_layer"]:
            body = entry["per_layer"].get(metric["name"])
            if body is None:
                if traced:
                    problems.append(f"{name}: per-layer metric {metric['name']} absent")
            elif body["unit"] != metric["unit"]:
                problems.append(
                    f"{name}: {metric['name']} has unit {body['unit']!r}, "
                    f"BENCHMARK.json says {metric['unit']!r}"
                )
        for metric in (*entry["end_to_end"], *entry["per_layer"]):
            if not NAME.match(metric):
                problems.append(f"{name}: metric name {metric!r} is outside [A-Za-z0-9_.-]")
        for check_name, verdict in entry["checks"].items():
            if verdict.startswith("failed"):
                problems.append(f"{name}: output check {check_name} {verdict}")
    if not results["correct"]:
        problems.append("results file says correct: false")
    return problems


def _spread(body: dict) -> float:
    return (body["q3"] - body["q1"]) / body["value"] if body["value"] else 0.0


def compare(first: dict, second: dict, spec: dict) -> "tuple[List[str], bool]":
    """Report rows for ``compare`` and whether anything was found."""
    rows: List[str] = []
    found = False
    same_input = all(
        first["manifest"][key] == second["manifest"][key]
        for key in ("seed", "scale", "trace_scale")
    )
    if not same_input:
        rows.append(
            "note: seeds or scales differ; simulated results and exact counts are "
            "held to the bounds, not to equality, and counts are not listed"
        )
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    for name in (w["name"] for w in spec["workloads"]):
        a, b = first["workloads"].get(name), second["workloads"].get(name)
        if a is None or b is None:
            rows.append(f"{name:<16} absent from one file")
            found = True
            continue
        for metric, definition in bounds.items():
            before, after = a["end_to_end"][metric], b["end_to_end"][metric]
            bound = definition["bound"]
            sign = 1.0 if definition["better"] == "lower" else -1.0
            worse_by = sign * (after["value"] - before["value"]) / before["value"]
            spread = max(_spread(before), _spread(after))
            if before["kind"] != "host" and same_input:
                verdict = "same" if after["value"] == before["value"] else "worse"
                detail = "held to equality"
            elif worse_by > bound:
                verdict, detail = "worse", f"bound {bound:.1%}"
            elif spread > bound:
                verdict, detail = "unresolved", f"spread {spread:.1%} > bound {bound:.1%}"
            else:
                verdict, detail = "same", f"spread {spread:.1%}, bound {bound:.1%}"
            found = found or verdict == "worse"
            moved = f"{worse_by:.1%} worse" if worse_by > 0 else f"{-worse_by:.1%} better"
            rows.append(
                f"{name:<16} {metric:<18} {verdict:<11} "
                f"{before['value']:.6g} -> {after['value']:.6g} {definition['unit']} "
                f"({moved}; {detail})"
            )
        if not same_input:
            continue
        differing = exact_differences(a, b)
        found = found or bool(differing)
        rows.extend(f"{name:<16} exact value differs: {line}" for line in differing)
    return rows, found


def exact_differences(a: dict, b: dict) -> List[str]:
    lines = []
    if a["sim_fingerprint"] != b["sim_fingerprint"]:
        lines.append(f"sim_fingerprint {a['sim_fingerprint'][:16]} -> {b['sim_fingerprint'][:16]}")
    for key in sorted(set(a["counts"]) | set(b["counts"])):
        if a["counts"].get(key) != b["counts"].get(key):
            lines.append(f"counts.{key} {a['counts'].get(key)} -> {b['counts'].get(key)}")
    for key in sorted(set(a["per_layer"]) & set(b["per_layer"])):
        before, after = a["per_layer"][key], b["per_layer"][key]
        if before["kind"] == "exact" and before["value"] != after["value"]:
            lines.append(f"{key} {before['value']!r} -> {after['value']!r}")
    return lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("check", help="is a results file complete and correct?").add_argument("results")
    compare_parser = commands.add_parser("compare", help="did anything get worse from A to B?")
    compare_parser.add_argument("first")
    compare_parser.add_argument("second")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "check":
        results = load(args.results)
        problems = check(results, spec)
        for problem in problems:
            print(problem)
        if not results["manifest"]["trace"]:
            print("note: written without --trace; traced and micro per-layer metrics not checked")
        print("check:", "FAILED" if problems else "ok")
        return 1 if problems else 0
    rows, found = compare(load(args.first), load(args.second), spec)
    for row in rows:
        print(row)
    print("compare:", "FINDINGS" if found else "nothing worse")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
