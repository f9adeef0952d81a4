"""One benchmark for the simulator: run it, check it, print every metric.

    python benchmarks/suite/run.py                  # five workloads, 5 repeats
    python benchmarks/suite/run.py --trace          # ... plus the per-layer ledger
    python benchmarks/suite/run.py --smoke          # a tenth of everything, < 1 min
    python benchmarks/suite/run.py --workload rubis-edge --seed 7 --seconds 15 --trace 0

The last form is the one ``BENCHMARK.json`` names: one workload, a
budget of host seconds, and as the last line of output one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Regime.  The simulator is single-threaded, so one child process runs at
a time; every (workload, repeat) is a fresh process (see ``child.py``);
repeats are interleaved round-robin across workloads so host drift hits
all alike; the garbage collector and the program's caches run as shipped
and nothing is warmed up, because users pay a cold start on every cell.
The value of a host-time metric is the median over repeats.

``--seconds S`` turns a time budget into a *fixed* input: the timed runs
and the micro-benchmarks are scaled by ``S / FULL_BUDGET_S`` (see
``workloads.py``).  A faster simulator finishes the same input sooner;
it is never given more.  The traced run is counted rather than timed, so
it keeps its own size (``TRACE_SCALE`` of the full workload) whatever
the budget, and its exact counts are comparable between any two runs at
one seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
RESULTS_DIR = REPO_ROOT / ".benchmarks"

sys.path.insert(0, str(SUITE_DIR))

import metrics  # noqa: E402
from workloads import BY_NAME, FULL_BUDGET_S, TRACE_SCALE, WORKLOADS  # noqa: E402

SMOKE_SCALE = 0.1


def run_child(task: dict) -> dict:
    """Run one measurement in a fresh interpreter and wait for it to end."""
    completed = subprocess.run(
        [sys.executable, str(SUITE_DIR / "child.py"), json.dumps(task)],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"child failed (exit {completed.returncode}): {task}")
    return json.loads(completed.stdout.splitlines()[-1])


def git_state() -> dict:
    """Revision and dirty flag; ``unknown`` outside a git checkout."""
    def git(*args: str) -> Optional[str]:
        try:
            completed = subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True
            )
        except OSError:
            return None
        return completed.stdout.strip() if completed.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "revision": revision or "unknown",
        "dirty": bool(status) if status is not None else None,
    }


def check_repeats(repeats: List[dict]) -> Dict[str, str]:
    """Output checks over one workload's untraced repeats."""
    def verdict(ok: bool, detail: str = "") -> str:
        return "passed" if ok else f"failed{': ' + detail if detail else ''}"

    first = repeats[0]
    goldens = {r["checks"]["golden"] for r in repeats}
    return {
        "fetches_positive": verdict(all(r["checks"]["fetches_positive"] for r in repeats)),
        "open_loop_accounting": verdict(all(r["checks"]["accounting"] for r in repeats)),
        "golden_byte_identity": goldens.pop() if len(goldens) == 1 else "failed: repeats disagree",
        "fingerprint_equal_across_repeats": verdict(
            all(r["fingerprint"] == first["fingerprint"] for r in repeats)
        ),
        "exact_counts_equal_across_repeats": verdict(
            all(
                r["counts"] == first["counts"]
                and r["sim_resp_total_ms"] == first["sim_resp_total_ms"]
                for r in repeats
            )
        ),
    }


def check_trace(values: Dict[str, float], traced_run: dict, twin: dict) -> Dict[str, str]:
    """Output checks over one workload's traced run and its untraced twin."""
    shares = {k: v for k, v in values.items() if k.endswith(".self_share")}
    total = sum(shares.values())
    other = shares["other.self_share"]
    same = (
        traced_run["fingerprint"] == twin["fingerprint"]
        and traced_run["counts"] == twin["counts"]
    )
    return {
        "tracing_leaves_simulation_unchanged": "passed" if same else "failed",
        "self_shares_sum_to_one": (
            "passed" if abs(total - 1.0) <= 0.001 else f"failed: sum {total!r}"
        ),
        "other_bucket_small": (
            "passed" if other <= 0.02 else f"failed: other.self_share {other!r}"
        ),
    }


def measure(args, names: List[str], scale: float, trace_scale: float, micro_scale: float):
    """Run every child the invocation asks for; returns the raw reports."""
    spans: List[dict] = []
    process_ids = itertools.count(1)

    def child(task: dict, label: dict) -> dict:
        report = run_child(task)
        process = next(process_ids)
        for span in report.pop("spans", ()):
            spans.append({"process": process, **label, **span})
        return report

    def workload_task(name: str, at_scale: float, traced: bool) -> dict:
        return {"kind": "workload", "workload": name, "seed": args.seed,
                "scale": at_scale, "traced": traced}

    repeats: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            print(f"[suite] {name} repeat {repeat + 1}/{args.repeats}", file=sys.stderr)
            repeats[name].append(
                child(workload_task(name, scale, False),
                      {"workload": name, "repeat": repeat, "traced": False})
            )
    traces: Dict[str, dict] = {}
    micro = None
    if args.trace:
        for name in names:
            print(f"[suite] {name} traced run and its untraced twin", file=sys.stderr)
            label = {"workload": name, "repeat": None}
            traces[name] = {
                "twin": child(workload_task(name, trace_scale, False),
                              {**label, "traced": False}),
                "traced": child(workload_task(name, trace_scale, True),
                                {**label, "traced": True}),
            }
        print("[suite] layer micro-benchmarks", file=sys.stderr)
        micro = run_child({"kind": "micro", "scale": micro_scale})
    return repeats, traces, micro, spans


def assemble(names, scale, trace_scale, repeats, traces, micro) -> Dict[str, dict]:
    """Per-workload metrics and checks from the raw child reports."""
    definitions = {metric.name: metric for metric in (*metrics.END_TO_END, *metrics.PER_LAYER)}

    def described(name: str, body: dict) -> dict:
        metric = definitions[name]
        return {"unit": metric.unit, "better": metric.better, "kind": metric.kind, **body}

    workloads: Dict[str, dict] = {}
    for name in names:
        runs = repeats[name]
        first = runs[0]
        end_to_end = metrics.end_to_end(runs)
        fetches = first["counts"]["fetches"]
        per_layer = {k: {"value": v} for k, v in metrics.work_counts(first["counts"]).items()}
        checks = check_repeats(runs)
        entry = {
            "why": BY_NAME[name].why,
            "loop": BY_NAME[name].loop,
            "scale": scale,
            "params": first["params"],
            "fetches": fetches,
            "errors": first["counts"]["errors"],
            "error_share": 1.0 - end_to_end["success_share"]["value"],
            "sim_fingerprint": first["fingerprint"],
            "end_to_end": {k: described(k, v) for k, v in end_to_end.items()},
            # Derived, printed for the reader, gated nowhere.
            "wall_s": end_to_end["setup_s"]["value"]
            + fetches / end_to_end["fetches_per_s"]["value"],
            "counts": first["counts"],
        }
        if name in traces:
            traced_run, twin = traces[name]["traced"], traces[name]["twin"]
            values = metrics.traced(traced_run, twin)
            per_layer.update((k, {"value": v}) for k, v in values.items())
            # The five samples behind each median stay in the "micro" section.
            per_layer.update((k, {"value": v["value"]}) for k, v in micro["micro"].items())
            checks.update(check_trace(values, traced_run, twin))
            entry["trace"] = {
                "scale": trace_scale,
                "fetches": traced_run["profile"]["fetches"],
                "sim_fingerprint": traced_run["fingerprint"],
                "layers": traced_run["profile"]["layers"],
                "traced_run_s": traced_run["host"]["run_s"],
                "untraced_run_s": twin["host"]["run_s"],
            }
        entry["per_layer"] = {k: described(k, v) for k, v in per_layer.items()}
        entry["checks"] = checks
        workloads[name] = entry
    return workloads


def print_report(workloads: Dict[str, dict]) -> None:
    """Every metric by name, with its unit."""
    for name, entry in workloads.items():
        print(f"== {name}  ({entry['loop']} loop, scale {entry['scale']:.4g}, "
              f"{entry['fetches']} fetches, fingerprint {entry['sim_fingerprint'][:16]})")
        for metric, body in entry["end_to_end"].items():
            spread = (
                f"median of {body['n']}, q1 {body['q1']:.6g} q3 {body['q3']:.6g}"
                if body["kind"] == "host" else "exact"
            )
            print(f"  {metric:<46} {body['value']:>16.6g} {body['unit']:<16} "
                  f"[{body['kind']}; {spread}]")
        print(f"  {'wall_s (derived: setup_s + fetches / fetches_per_s)':<46} "
              f"{entry['wall_s']:>16.6g} s")
        for metric, body in entry["per_layer"].items():
            print(f"  {metric:<46} {body['value']:>16.6g} {body['unit']:<16} [{body['kind']}]")
        for check, verdict in entry["checks"].items():
            print(f"  check {check:<40} {verdict}")


def contract_line(entry: dict, trace: bool, correct: bool) -> str:
    """The one JSON object ``BENCHMARK.json``'s driver reads."""
    source = entry["per_layer"] if trace else entry["end_to_end"]
    return json.dumps({
        "correct": correct,
        "attempted": entry["fetches"] + entry["errors"],
        "failed": entry["errors"],
        "metrics": {
            name: {"value": body["value"], "unit": body["unit"]}
            for name, body in source.items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="run one workload and end with the driver's JSON line "
                        "(default: all five)")
    parser.add_argument("--seed", type=int, default=2003,
                        help="workload seed (default %(default)s, the golden seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"host-seconds budget per workload; scales the input by "
                        f"SECONDS/{FULL_BUDGET_S:g} (default: full scale)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fresh-process repeats per workload (default 5; never "
                        "below 3 for a number you mean to keep)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the traced pair and the layer micro-benchmarks")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of every duration, 1 repeat, trace on")
    parser.add_argument("--output", default=None,
                        help="results file (default: .benchmarks/suite-<time>.json)")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    scale = micro_scale = 1.0
    trace_scale = TRACE_SCALE
    if args.seconds is not None:
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        scale = micro_scale = args.seconds / FULL_BUDGET_S
    if args.smoke:
        scale = micro_scale = SMOKE_SCALE
        trace_scale = TRACE_SCALE * SMOKE_SCALE
        args.trace = 1
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 5
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]

    started_at = time.time()
    started = time.perf_counter()
    repeats, traces, micro, spans = measure(args, names, scale, trace_scale, micro_scale)
    workloads = assemble(names, scale, trace_scale, repeats, traces, micro)
    correct = all(
        not verdict.startswith("failed")
        for entry in workloads.values()
        for verdict in entry["checks"].values()
    )
    results = {
        "manifest": {
            "git": git_state(),
            "seed": args.seed,
            "repeats": args.repeats,
            "scale": scale,
            "trace": bool(args.trace),
            "trace_scale": trace_scale,
            "micro_scale": micro_scale,
            "smoke": args.smoke,
            "workload_params": {name: workloads[name]["params"] for name in names},
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started_at)),
            "ended_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host_seconds": time.perf_counter() - started,
        },
        "correct": correct,
        "workloads": workloads,
        "micro": micro,
        "spans": spans,
    }
    if args.output:
        output = Path(args.output)
    else:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(started_at))
        output = RESULTS_DIR / f"suite-{stamp}-{os.getpid()}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=1) + "\n")

    print_report(workloads)
    print(f"results: {output}  ({results['manifest']['host_seconds']:.1f} host seconds, "
          f"{'all checks passed' if correct else 'CHECKS FAILED'})")
    if args.workload:
        print(contract_line(workloads[args.workload], bool(args.trace), correct))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
