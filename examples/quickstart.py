"""Quickstart: deploy RUBiS across the WAN testbed and measure it.

Stands up the paper's testbed (one main server with the database, two
edge servers, 100 ms WAN), deploys RUBiS at the *query caching* level,
runs two simulated minutes of the paper's workload, and prints per-group
response times plus a design-rule report.

Run:  python examples/quickstart.py
"""

from repro.core import PatternLevel, check_rules
from repro.experiments import run_configuration
from repro.experiments.calibration import default_workload


def main() -> None:
    print("deploying RUBiS at level 4 (query caching) on the WAN testbed ...")
    result = run_configuration(
        "rubis",
        PatternLevel.QUERY_CACHING,
        workload=default_workload(duration_ms=120_000.0, warmup_ms=30_000.0),
        with_spans=True,
    )

    print(f"\nsimulated 120 s of load in {result.wall_seconds:.1f} s wall-clock")
    print(f"served {result.generator.total_requests()} page requests "
          f"({result.generator.achieved_rate_per_s():.1f}/s)\n")

    print("session-average response times:")
    for group in result.groups():
        print(f"  {group:16s} {result.session_mean(group):7.1f} ms")

    print("\nper-page means for the remote browser:")
    monitor = result.monitor
    for page in monitor.pages("remote-browser"):
        stats = monitor.page_stats("remote-browser", page)
        print(f"  {page:20s} {stats.mean:7.1f} ms  (n={stats.count})")

    print("\nserver CPU utilization:")
    for name, utilization in result.system.utilization_report().items():
        print(f"  {name:12s} {utilization:.0%}")

    print("\ndesign-rule check (§5):")
    report = check_rules(result.system, result.spans, min_replica_hit_rate=0.3)
    print(" ", report.summary().replace("\n", "\n  "))

    print("\ndeployment plan:")
    print(" ", result.system.plan.describe().replace("\n", "\n  "))


if __name__ == "__main__":
    main()
