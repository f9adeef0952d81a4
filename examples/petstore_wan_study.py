"""The paper's Pet Store study in miniature (§4, Table 6, Figure 7).

Applies the five configurations incrementally — exactly the paper's
methodology — and prints the per-page table and session-average figure
after a scaled-down run of each.  Expect a few seconds of wall-clock per
configuration, or pass ``--jobs N`` to run the five independent
configurations across N worker processes (the printed tables are
byte-identical either way).

Run:  python examples/petstore_wan_study.py [--duration SECONDS] [--jobs N]
"""

import argparse

from repro.core.patterns import PAPER_LEVELS, PatternLevel, level_name
from repro.experiments import build_figure, build_table, render_figure, render_table
from repro.experiments.calibration import default_workload
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import run_configuration, run_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per configuration")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, the default)")
    args = parser.parse_args()
    workload = default_workload(
        duration_ms=args.duration * 1000.0, warmup_ms=args.duration * 250.0
    )

    def announce(level):
        print(f"[{int(level)}/5] {level_name(level)}")

    def describe(result):
        print(f"      remote browser {result.session_mean('remote-browser'):6.0f} ms | "
              f"remote buyer {result.session_mean('remote-buyer'):6.0f} ms | "
              f"({result.wall_seconds:.1f}s wall)")

    if args.jobs == 1:
        results = {}
        for level in PAPER_LEVELS:
            announce(level)
            results[level] = run_configuration("petstore", level, workload=workload)
            describe(results[level])
    else:
        progress = ProgressReporter(len(PAPER_LEVELS), label="configurations")
        results = run_series(
            "petstore", workload=workload, jobs=args.jobs, progress=progress
        )
        for level in PAPER_LEVELS:
            announce(level)
            describe(results[level])

    print()
    print(render_table(build_table(results)))
    print()
    print(render_figure(build_figure(results)))

    final = results[PatternLevel.ASYNC_UPDATES]
    baseline = results[PatternLevel.CENTRALIZED]
    speedup = (
        baseline.session_mean("remote-browser") / final.session_mean("remote-browser")
    )
    print(f"\nremote browsers end up {speedup:.1f}x faster than the centralized "
          "baseline — 'almost completely insulated from wide-area effects' (§4.6)")


if __name__ == "__main__":
    main()
