"""Open-loop scale benchmark: session capacity of the full stack.

The RUBiS open-loop scenario runs through the entire simulated testbed
(HTTP front ends, EJB containers, database, wide-area links), sized so
the number of simultaneously active sessions sustains >= 10^5: short
transition-matrix sessions with long think times, Little's law doing
the rest.  Reported in ``BENCH_scale.json``: peak concurrent sessions,
total page fetches, errors, wall clock, peak RSS and bytes per peak
session.

Measurement regime, documented because it is part of the number: wall
clock covers ``run_configuration`` end to end (set-up included), one
run, garbage collector as shipped.  ``peak_rss_mb`` is the process's
high-water resident set; ``bytes_per_peak_session`` is what the run
added to it (the high-water mark before ``run_configuration`` against
the one after), divided by the peak concurrent sessions.  Set-up is in
that growth, so it bounds the memory a concurrent session costs from
above.

Usage::

    python benchmarks/bench_scale.py                 # full: 10^5-session target
    python benchmarks/bench_scale.py --smoke         # CI: 10^4-session target
    python benchmarks/bench_scale.py --require-sessions 100000

Exits non-zero when the session accounting does not add up (every
admitted session completes, every arrival is admitted or dropped, no
more errors than fetches) or when a ``--require-sessions`` gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def fullstack_openloop(target_sessions: int, seed: int) -> dict:
    """RUBiS open-loop sized to sustain ``target_sessions`` concurrently.

    Little's law sizes the scenario: sustained concurrency is arrival
    rate x mean session lifetime.  Sessions follow a short transition-
    matrix mix (mean two pages -> one think between them), so lifetime
    is dominated by a single long think, and the arrival window is long
    enough for the active-session count to plateau before it ends.
    """
    from repro.apps.rubis import browser_pattern as rubis_browser
    from repro.experiments.runner import run_configuration
    from repro.workload.openloop import OpenLoopConfig, TransitionMatrixPattern

    think_ms = 60_000.0
    # Mean lifetime is one 60 s think (geometric mean-2 sessions think
    # between pages only), and the plateau at t = 2 x think is ~86% of
    # rate x lifetime, so 1.5x headroom clears the target comfortably.
    rate_per_s = target_sessions / (think_ms / 1000.0) * 1.5
    duration_ms = think_ms * 2.0

    config = OpenLoopConfig(
        session_rate_per_s=rate_per_s,
        duration_ms=duration_ms,
        warmup_ms=duration_ms * 0.125,
        think_time_ms=think_ms,
    )

    def short_browser(catalog):
        # The stock Table-4 browse mix (real page names, structurally
        # consistent params), shortened to mean-two-page Markov sessions
        # so lifetime is think-dominated and Little's law gives the
        # concurrency target without an absurd fetch volume.
        return TransitionMatrixPattern(rubis_browser(catalog), mean_length=2.0)

    rss_before = _peak_rss_bytes()
    started = time.perf_counter()
    result = run_configuration(
        "rubis", 5, seed=seed, openloop=config,
        browser_pattern=short_browser,
    )
    wall = time.perf_counter() - started
    rss_peak = _peak_rss_bytes()
    generator = result.generator
    return {
        "scenario": "rubis-openloop",
        "arrival": config.arrival,
        "session_rate_per_s": round(rate_per_s, 1),
        "duration_ms": duration_ms,
        "think_time_ms": think_ms,
        "arrivals": generator.arrivals,
        "admitted": generator.admitted,
        "completions": generator.completions,
        "dropped_sessions": generator.dropped_sessions,
        "peak_concurrent_sessions": generator.peak_active,
        "page_fetches": generator.requests_sent,
        "errors": generator.errors,
        "wall_seconds": round(wall, 2),
        "fetches_per_wall_sec": round(generator.requests_sent / wall) if wall else None,
        "peak_rss_mb": round(rss_peak / 2**20, 1),
        "bytes_per_peak_session": (
            round((rss_peak - rss_before) / generator.peak_active)
            if generator.peak_active else None
        ),
    }


def _peak_rss_bytes() -> int:
    """The process's high-water resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def accounting_errors(stack: dict) -> list:
    """The session-accounting identities ``stack`` breaks, as messages.

    Fetch errors may be nonzero: an open loop drives the testbed past
    its capacity by design, and failed fetches under overload are
    deterministic for a fixed seed.
    """
    broken = []
    if stack["admitted"] != stack["completions"]:
        broken.append(f"admitted {stack['admitted']:,} != completions "
                      f"{stack['completions']:,}")
    if stack["arrivals"] != stack["admitted"] + stack["dropped_sessions"]:
        broken.append(f"arrivals {stack['arrivals']:,} != admitted "
                      f"{stack['admitted']:,} + dropped "
                      f"{stack['dropped_sessions']:,}")
    if stack["errors"] > stack["page_fetches"]:
        broken.append(f"errors {stack['errors']:,} > page fetches "
                      f"{stack['page_fetches']:,}")
    return broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 10^4-session target")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument("--require-sessions", type=int, default=None, metavar="N",
                        help="exit non-zero unless the full-stack run "
                        "sustains >= N concurrent sessions")
    args = parser.parse_args()

    target = 10_000 if args.smoke else 100_000
    print(f"[scale] full-stack RUBiS open loop, target {target:,} "
          "concurrent sessions ...", file=sys.stderr)
    fullstack = fullstack_openloop(target, args.seed)
    print(f"[scale]   peak {fullstack['peak_concurrent_sessions']:,} "
          f"concurrent sessions, {fullstack['page_fetches']:,} fetches "
          f"in {fullstack['wall_seconds']}s wall", file=sys.stderr)
    print(f"[scale]   peak RSS {fullstack['peak_rss_mb']} MB, "
          f"{fullstack['bytes_per_peak_session']:,} B per peak session",
          file=sys.stderr)

    report = {
        "benchmark": "open-loop scale (full-stack RUBiS, level 5)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "smoke": args.smoke,
        "regime": {
            "timed": "run_configuration end to end (set-up included)",
            "runs": 1,
            "gc": "as shipped",
        },
        "fullstack": fullstack,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failed = False
    for message in accounting_errors(fullstack):
        print(f"ERROR: session accounting: {message}", file=sys.stderr)
        failed = True
    if args.require_sessions is not None:
        if fullstack["peak_concurrent_sessions"] < args.require_sessions:
            print(f"ERROR: sustained {fullstack['peak_concurrent_sessions']:,} "
                  f"< required {args.require_sessions:,} concurrent sessions",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
