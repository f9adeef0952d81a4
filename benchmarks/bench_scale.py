"""Open-loop scale benchmark: session capacity and kernel throughput.

Two measurements back the open-loop scalability work, written to
``BENCH_scale.json``:

1. **Kernel microbench** — the live kernel (sleep lane, one heap) vs the
   frozen seed kernel (a ``Timeout`` per think,
   ``benchmarks/baseline_kernel.py``): pure session churn through both.
   Each of N sessions sleeps through a fixed number of think times
   drawn once per session from an exponential with the open-loop
   engine's 7 s default mean, truncated to whole milliseconds exactly
   as the engine truncates them (the RUBiS client emulator
   schedules thinks via ``Thread.sleep(ms)``).  The live kernel sleeps
   through ``yield env.sleep(t)``; the baseline predates the sleep lane,
   so its sessions wait the idiomatic way it offers —
   ``yield env.timeout(t)``, one Timeout event plus callback list per
   think — the allocation the sleep lane removes.
   N spans 10^5 and 10^6 concurrent sessions.

2. **Full-stack run** — the RUBiS open-loop scenario through the entire
   simulated testbed (HTTP front ends, EJB containers, database,
   wide-area links), sized so the number of simultaneously active
   sessions sustains >= 10^5: short transition-matrix sessions with
   long think times, Little's law doing the rest.  Reported: peak
   concurrent sessions, total page fetches, kernel wall clock.

Measurement regime, documented because it is part of the number: wall
clock covers ``env.run()`` only (scenario construction excluded); the
garbage collector is disabled during the timed region for *both*
kernels — with it enabled the numbers drop for both and the ratio keeps
the same shape, but gc pauses add run-to-run noise — and each cell
reports the best of ``--repeat`` runs, live and baseline interleaved so
shared-host speed drift hits both sides alike.  Events are counted
analytically: one bootstrap dispatch plus one wake per think per
session.

Usage::

    python benchmarks/bench_scale.py                 # full: 1e5 + 1e6 + stack
    python benchmarks/bench_scale.py --smoke         # CI: 1e4 cells, small stack
    python benchmarks/bench_scale.py --require-speedup 5.0 --require-sessions 100000

Exits non-zero when a ``--require-*`` gate fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.simnet.kernel import Environment

_BASELINE_PATH = Path(__file__).parent / "baseline_kernel.py"


def _load_baseline():
    spec = importlib.util.spec_from_file_location("baseline_kernel", _BASELINE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# -- kernel microbench -------------------------------------------------------

THINK_MEAN_MS = 7_000.0  # the open-loop engine's default
WAKES_PER_SESSION = 10


def _session_thinks(n: int, seed: int = 7):
    """One ms-truncated exponential think per session, engine-style."""
    rng = random.Random(seed)
    expovariate = rng.expovariate
    rate = 1.0 / THINK_MEAN_MS
    return [max(1.0, float(int(expovariate(rate)))) for _ in range(n)]


def _churn_live(n: int, wakes: int) -> float:
    """Wall seconds for n sessions x wakes sleeps through the live kernel."""
    env = Environment()

    def session(think):
        for _ in range(wakes):
            yield think

    for think in _session_thinks(n):
        env.process(session(think))
    gc.disable()
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    gc.enable()
    del env
    gc.collect()
    return wall


def _churn_baseline(n: int, wakes: int) -> float:
    """Same churn through the frozen heapq kernel (timeout per think)."""
    baseline = _load_baseline()
    env = baseline.Environment()

    def session(env, think):
        for _ in range(wakes):
            yield env.timeout(think)

    for think in _session_thinks(n):
        env.process(session(env, think))
    gc.disable()
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    gc.enable()
    del env
    gc.collect()
    return wall


def kernel_microbench(sessions: int, wakes: int, repeat: int) -> dict:
    events = sessions * (wakes + 1)
    # Interleave live/baseline repeats: host speed drifts on shared
    # machines, and alternating keeps both kernels' best-of sampled
    # from the same conditions instead of handing one side a fast
    # minute and the other a slow one.
    live_walls, base_walls = [], []
    for _ in range(repeat):
        live_walls.append(_churn_live(sessions, wakes))
        base_walls.append(_churn_baseline(sessions, wakes))
    live_wall = min(live_walls)
    base_wall = min(base_walls)
    live_rate = events / live_wall
    base_rate = events / base_wall
    return {
        "concurrent_sessions": sessions,
        "wakes_per_session": wakes,
        "events": events,
        "live_events_per_sec": round(live_rate),
        "baseline_events_per_sec": round(base_rate),
        "speedup": round(live_rate / base_rate, 2),
        "live_wall_seconds": round(live_wall, 3),
        "baseline_wall_seconds": round(base_wall, 3),
    }


# -- full-stack open-loop run ------------------------------------------------

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

    started = time.perf_counter()
    result = run_configuration(
        "rubis", 5, seed=seed, openloop=config,
        browser_pattern=short_browser,
    )
    wall = time.perf_counter() - started
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
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 1e4-session cells only")
    parser.add_argument("--sessions", type=int, nargs="*", default=None,
                        help="microbench session counts (default: 1e5 1e6)")
    parser.add_argument("--wakes", type=int, default=WAKES_PER_SESSION)
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N interleaved runs per cell "
                        "(default 3)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--skip-fullstack", action="store_true")
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument("--require-speedup", type=float, default=None, metavar="X",
                        help="exit non-zero unless the largest microbench "
                        "cell's speedup >= X")
    parser.add_argument("--require-sessions", type=int, default=None, metavar="N",
                        help="exit non-zero unless the full-stack run "
                        "sustains >= N concurrent sessions")
    args = parser.parse_args()

    if args.sessions:
        session_counts = args.sessions
    elif args.smoke:
        session_counts = [10_000]
    else:
        session_counts = [100_000, 1_000_000]
    fullstack_target = 10_000 if args.smoke else 100_000

    cells = []
    for sessions in session_counts:
        print(f"[scale] kernel microbench: {sessions:,} sessions x "
              f"{args.wakes} wakes ...", file=sys.stderr)
        cell = kernel_microbench(sessions, args.wakes, args.repeat)
        print(f"[scale]   live {cell['live_events_per_sec']:,} ev/s, "
              f"baseline {cell['baseline_events_per_sec']:,} ev/s, "
              f"speedup {cell['speedup']}x", file=sys.stderr)
        cells.append(cell)

    fullstack = None
    if not args.skip_fullstack:
        print(f"[scale] full-stack RUBiS open loop, target "
              f"{fullstack_target:,} concurrent sessions ...", file=sys.stderr)
        fullstack = fullstack_openloop(fullstack_target, args.seed)
        print(f"[scale]   peak {fullstack['peak_concurrent_sessions']:,} "
              f"concurrent sessions, {fullstack['page_fetches']:,} fetches "
              f"in {fullstack['wall_seconds']}s wall", file=sys.stderr)

    report = {
        "benchmark": "open-loop scale (live kernel (sleep lane, one heap) vs "
                     "the frozen seed kernel (a Timeout per think))",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "smoke": args.smoke,
        "regime": {
            "gc": "disabled during timed region (both kernels)",
            "repeat": args.repeat,
            "statistic": "best of interleaved repeats",
            "think_distribution": f"expovariate(mean={THINK_MEAN_MS}ms), "
                                  "truncated to whole ms",
            "baseline_wait": "yield env.timeout(t) (pre-sleep-lane idiom)",
            "live_wait": "yield env.sleep(t)",
        },
        "kernel_microbench": cells,
        "fullstack": fullstack,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failed = False
    if args.require_speedup is not None and cells:
        top = max(cells, key=lambda c: c["concurrent_sessions"])
        if top["speedup"] < args.require_speedup:
            print(f"ERROR: speedup {top['speedup']} < required "
                  f"{args.require_speedup} at {top['concurrent_sessions']:,} "
                  "sessions", file=sys.stderr)
            failed = True
    if args.require_sessions is not None and fullstack is not None:
        if fullstack["peak_concurrent_sessions"] < args.require_sessions:
            print(f"ERROR: sustained {fullstack['peak_concurrent_sessions']:,} "
                  f"< required {args.require_sessions:,} concurrent sessions",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
