"""Command-line entry point for regenerating the paper's artifacts.

Usage::

    python -m repro.experiments table6            # Pet Store, Table 6
    python -m repro.experiments table7            # RUBiS, Table 7
    python -m repro.experiments figure7           # Pet Store, Figure 7
    python -m repro.experiments figure8           # RUBiS, Figure 8
    python -m repro.experiments all               # everything
    python -m repro.experiments table6 --duration 120 --warmup 30
    python -m repro.experiments all --jobs 4      # four worker processes
    python -m repro.experiments table6 --out run/ # plus an artifact bundle

Every (application, configuration) cell is independent, so the sweep
fans out across ``--jobs`` worker processes (default: one per CPU).
Table/figure output on stdout is byte-identical for any ``--jobs``
value; progress reporting goes to stderr.

``--out DIR`` records spans and the telemetry series (``--obs-interval``
seconds per window, spans for the ``--obs-sample`` share of sessions)
and writes the run's artifact bundle into ``DIR`` (see
:data:`repro.obs.export.BUNDLE`): ``trace.json`` (Chrome trace events,
one span tree per client page request; load it in Perfetto or
``chrome://tracing``), ``metrics.json``, ``series.json``, ``flame.txt``
(collapsed stacks for speedscope / flamegraph.pl), ``flame.html``,
``attribution.txt`` (per-layer latency attribution), plus ``slo.json``
with ``--slo`` and ``availability.json`` with ``--faults``.  The bundle
is byte-identical for any ``--jobs`` value, stdout does not depend on
``--out``, and ``python -m repro.obs.validate DIR`` checks it::

    python -m repro.experiments table7 --workload open --scenario flash-crowd \
        --obs-interval 1 --obs-sample 0.1 --slo policies/slo-default.json \
        --out run/

``--slo`` evaluates declarative objectives per window, with burn rates
and fault-window recovery times printed after the tables; ``--faults``
prints an availability table per app.

Beyond the paper's grid::

    python -m repro.experiments table7 --workload open --arrival pareto \
        --scenario flash-crowd --session-rate 20 --max-sessions 5000
    python -m repro.experiments table6 --edges 4 --wan-latency 50
    python -m repro.experiments table7 --policy policies/replicas-one-edge.json
    python -m repro.experiments plan --app petstore --level 3
    python -m repro.experiments plan --policy my-policy.json --edges 3

``--policy FILE`` swaps the canned pattern-level configurations for a
declarative placement policy (see ``repro.core.policy``); the run then
covers that single configuration per app.  ``--edges`` / ``--wan-latency``
/ ``--clients-per-group`` override the calibrated testbed.  The ``plan``
target resolves a policy onto the testbed and prints the deployment plan,
the resolved policy JSON, and the static design-rule precheck — without
running any simulation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ..core.patterns import PatternLevel
from ..core.policy import PolicyError, load_policy
from ..faults.report import build_availability_table, render_availability_table
from ..faults.scenarios import SCENARIOS, default_edges, load_schedule
from ..simnet.topology import TestbedConfig, TopologyOverrides
from ..workload.openloop import ARRIVALS, SCENARIOS as OPENLOOP_SCENARIOS, OpenLoopConfig
from .calibration import SIM_DURATION_MS, SIM_WARMUP_MS, default_workload
from .figures import build_figure, figure_to_csv, render_figure
from .parallel import default_jobs, run_cells
from .progress import ProgressReporter
from .runner import RunSpec, sweep_levels
from .tables import build_table, render_table, table_to_csv

TARGETS = {
    "table6": ("petstore", "table"),
    "table7": ("rubis", "table"),
    "figure7": ("petstore", "figure"),
    "figure8": ("rubis", "figure"),
}
ABLATION_TARGET = "ablations"
PLAN_TARGET = "plan"


def _span_digest(state: dict) -> str:
    """One stderr line per traced cell: spans by kind, wide-area spans,
    drops, and the sampled share of requests when sampling is on."""
    by_kind = {}
    wide_area = 0
    for span in state["spans"]:
        by_kind[span["kind"]] = by_kind.get(span["kind"], 0) + 1
        wide_area += span["wide_area"]
    kinds = " ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
    line = (
        f"{len(state['spans'])} spans ({kinds or 'none'}), "
        f"{wide_area} wide-area, {state['dropped']} dropped"
    )
    if "sample_rate" in state:
        sampled = state["sampled_requests"]
        total = sampled + state["skipped_requests"]
        rate = state["sample_rate"]
        line += f", spans sampled {sampled}/{total} requests (rate {rate:g})"
    return line


def _run_plan(args, policy, topology, levels) -> int:
    """The ``plan`` target: resolve and print, no simulation.

    For each requested application, builds the app, applies the policy
    (the ``--policy`` file, or the canned policy for ``--level``),
    resolves it onto the (possibly overridden) testbed, and prints the
    deployment plan, the resolved policy JSON, and the static design-rule
    precheck.  Returns non-zero when the precheck finds violations.
    """
    from ..apps.dataset import load_dataset
    from ..core.automation import apply_policy
    from ..core.planner import PlanError, plan_deployment
    from ..core.policy import level_policy
    from ..core.rules import precheck
    from ..simnet.kernel import Environment
    from ..simnet.rng import Streams
    from .runner import APPS

    if policy is not None and args.app is None:
        print(
            "[plan] a policy file names one application's components; "
            "pick it with --app",
            file=sys.stderr,
        )
        return 2
    apps = [args.app] if args.app else sorted(APPS)
    exit_code = 0
    for app in apps:
        spec = APPS[app]
        config = spec.testbed_config()
        if topology is not None:
            config = topology.apply(config)
        for level in levels:
            from ..simnet.topology import build_testbed

            streams = Streams(args.seed)
            _database, catalog = load_dataset(spec.populate, streams)
            env = Environment()
            testbed = build_testbed(env, config)
            application = spec.build_application(catalog=catalog)
            resolved = policy
            if resolved is None:
                resolved = level_policy(level, application)
            try:
                apply_policy(application, resolved)
                plan = plan_deployment(
                    application,
                    testbed.main_server,
                    list(testbed.edge_servers),
                    resolved,
                )
            except (PolicyError, PlanError) as exc:
                print(f"[plan] {app}: {exc}", file=sys.stderr)
                return 2
            report = precheck(application, plan, policy=resolved)
            print(f"== {app} · policy '{resolved.name}' ==")
            print(plan.describe())
            print()
            print("resolved policy:")
            print(resolved.to_json_str(), end="")
            print(f"precheck ({', '.join(report.checked_rules)}): ", end="")
            if report.ok:
                print("PASS")
            else:
                print(f"{len(report.violations)} violation(s)")
                for violation in report.violations:
                    print(f"  {violation}")
                exit_code = 1
            print()
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        choices=sorted(TARGETS) + ["all", ABLATION_TARGET, PLAN_TARGET],
        help="artifact to regenerate (or 'plan' to print a deployment "
        "plan without simulating)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=SIM_DURATION_MS / 1000.0,
        help="simulated seconds per configuration (default %(default)s)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=SIM_WARMUP_MS / 1000.0,
        help="simulated warm-up seconds excluded from statistics",
    )
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of the text layout"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep (default: one per CPU; "
        "1 runs serially in-process; output is identical either way)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="record spans and the telemetry series and write the run's "
        "artifact bundle into DIR (created if absent; check it with "
        "python -m repro.obs.validate DIR)",
    )
    parser.add_argument(
        "--obs-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="telemetry window width in simulated seconds "
        "(default %(default)s; used by --out/--slo)",
    )
    parser.add_argument(
        "--obs-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="(with --out) fraction of sessions whose spans are recorded, "
        "decided by a deterministic hash of the session id "
        "(default %(default)s: all)",
    )
    parser.add_argument(
        "--slo",
        metavar="FILE",
        default=None,
        help="evaluate declarative SLO objectives (JSON, see repro.obs.slo) "
        "per telemetry window; prints burn rates and fault recovery times",
    )
    parser.add_argument(
        "--faults",
        metavar="SCENARIO",
        default=None,
        help="inject a fault scenario: a canned name "
        f"({', '.join(sorted(SCENARIOS))}) or a path to a schedule JSON; "
        "prints an availability table per app after the sweep",
    )
    parser.add_argument(
        "--policy",
        metavar="FILE",
        default=None,
        help="run a declarative placement policy (JSON file, see "
        "repro.core.policy) instead of the five canned configurations",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=None,
        metavar="N",
        help="number of edge servers (default: the app's calibrated "
        "testbed — the paper's 2)",
    )
    parser.add_argument(
        "--wan-latency",
        type=float,
        default=None,
        metavar="MS",
        help="one-way WAN latency in ms (default: the paper's 100)",
    )
    parser.add_argument(
        "--clients-per-group",
        type=int,
        default=None,
        metavar="N",
        help="client machines per application server (default: the "
        "paper's 3)",
    )
    parser.add_argument(
        "--workload",
        choices=("closed", "open"),
        default="closed",
        help="client model: 'closed' is the paper's fixed population with "
        "soft think times; 'open' spawns independent sessions from an "
        "arrival process (see repro.workload.openloop)",
    )
    parser.add_argument(
        "--arrival",
        choices=ARRIVALS,
        default="poisson",
        help="(open loop) inter-arrival law (default %(default)s)",
    )
    parser.add_argument(
        "--scenario",
        choices=OPENLOOP_SCENARIOS,
        default="steady",
        help="(open loop) rate-modulation scenario (default %(default)s)",
    )
    parser.add_argument(
        "--session-rate",
        type=float,
        default=10.0,
        metavar="PER_S",
        help="(open loop) mean session arrivals per second "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=0,
        metavar="N",
        help="(open loop) admission cap on concurrent sessions; arrivals "
        "beyond it are dropped (default: unbounded)",
    )
    parser.add_argument(
        "--think-time",
        type=float,
        default=7.0,
        metavar="S",
        help="(open loop) mean think time between a session's pages in "
        "seconds (default %(default)s)",
    )
    parser.add_argument(
        "--app",
        choices=("petstore", "rubis"),
        default=None,
        help="(plan target) application to plan for (default: both)",
    )
    parser.add_argument(
        "--level",
        type=int,
        choices=tuple(int(level) for level in PatternLevel),
        default=None,
        help="run (or plan) a single pattern level instead of the default "
        "1-5 sweep, for any --jobs value (the only way to reach level 6 "
        "without a --policy file; ignored with --policy)",
    )
    args = parser.parse_args(argv)

    if args.edges is not None and args.edges < 1:
        print("[topology] --edges must be >= 1", file=sys.stderr)
        return 2
    if args.clients_per_group is not None and args.clients_per_group < 1:
        print("[topology] --clients-per-group must be >= 1", file=sys.stderr)
        return 2
    if args.wan_latency is not None and not 0 <= args.wan_latency < math.inf:
        print("[topology] --wan-latency must be finite and >= 0", file=sys.stderr)
        return 2
    overrides = TopologyOverrides(
        edges=args.edges,
        wan_latency=args.wan_latency,
        clients_per_group=args.clients_per_group,
    )
    topology = None if overrides.empty else overrides

    policy = None
    if args.policy is not None:
        try:
            policy = load_policy(args.policy)
        except (OSError, PolicyError) as exc:
            print(f"[policy] {exc}", file=sys.stderr)
            return 2
        print(
            f"[policy] '{policy.name}' from {args.policy} "
            f"(metadata level {int(policy.effective_level())})",
            file=sys.stderr,
        )
    if topology is not None:
        print(
            "[topology] overrides: "
            + ", ".join(
                f"{knob}={value}"
                for knob, value in (
                    ("edges", args.edges),
                    ("wan-latency", args.wan_latency),
                    ("clients-per-group", args.clients_per_group),
                )
                if value is not None
            ),
            file=sys.stderr,
        )

    levels = sweep_levels(policy, [args.level] if args.level else None)
    if args.target == PLAN_TARGET:
        return _run_plan(args, policy, topology, levels)
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    with_series = args.out is not None or args.slo is not None
    if not 0 < args.obs_interval < math.inf:
        print("[obs] --obs-interval must be positive and finite", file=sys.stderr)
        return 2
    if not 0.0 < args.obs_sample <= 1.0:
        print("[obs] --obs-sample must be in (0, 1]", file=sys.stderr)
        return 2

    objectives = None
    if args.slo is not None:
        from ..obs.slo import SloError, load_slo

        try:
            objectives = load_slo(args.slo)
        except (OSError, ValueError) as exc:
            # SloError subclasses ValueError; bad JSON raises ValueError too.
            kind = "slo" if isinstance(exc, SloError) else "slo file"
            print(f"[{kind}] {exc}", file=sys.stderr)
            return 2
        print(
            f"[slo] {len(objectives)} objective(s) from {args.slo}",
            file=sys.stderr,
        )

    if args.target == ABLATION_TARGET:
        if with_series:
            print(
                "[obs] --out/--slo are not supported for ablations",
                file=sys.stderr,
            )
            return 2
        if args.faults is not None:
            print("[faults] --faults is not supported for ablations", file=sys.stderr)
            return 2
        if args.workload == "open":
            print(
                "[workload] --workload open is not supported for ablations",
                file=sys.stderr,
            )
            return 2
        if policy is not None or topology is not None:
            print(
                "[policy] --policy/--edges/--wan-latency/--clients-per-group "
                "are not supported for ablations",
                file=sys.stderr,
            )
            return 2
        from . import ablations

        progress = ProgressReporter(len(ablations.ABLATIONS), label="ablations")
        results = ablations.run_all_ablations(jobs=jobs, progress=progress)
        for name in ablations.ABLATIONS:
            print(f"\n== {name} ==")
            for key, value in results[name].items():
                print(f"  {key}: {value}")
        return 0

    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    duration_ms, warmup_ms = args.duration * 1000.0, args.warmup * 1000.0
    workload = openloop = None
    try:
        if args.workload == "closed":
            workload = default_workload(duration_ms, warmup_ms)
        else:
            openloop = OpenLoopConfig(
                arrival=args.arrival,
                scenario=args.scenario,
                session_rate_per_s=args.session_rate,
                duration_ms=duration_ms,
                warmup_ms=warmup_ms,
                think_time_ms=args.think_time * 1000.0,
                max_sessions=args.max_sessions,
            )
    except ValueError as exc:
        print(f"[workload] {exc}", file=sys.stderr)
        return 2
    if openloop is not None:
        print(
            f"[workload] open loop: {args.arrival} arrivals at "
            f"{args.session_rate:g}/s, {args.scenario} scenario",
            file=sys.stderr,
        )
    apps_needed = sorted({TARGETS[target][0] for target in targets})

    faults = None
    if args.faults is not None:
        # Canned scenarios target the actual edges of the effective
        # (possibly overridden) topology — derived from TestbedConfig, so
        # a changed calibration default propagates here automatically.
        effective = TestbedConfig()
        if topology is not None:
            effective = topology.apply(effective)
        faults = load_schedule(
            args.faults, duration_ms, warmup_ms, edges=default_edges(effective)
        )
        print(f"[faults] scenario '{faults.name}' active", file=sys.stderr)

    if args.out is not None:
        # Before any cell runs: an unusable DIR must not cost a sweep.
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"[out] {exc}", file=sys.stderr)
            return 2

    spec = RunSpec(
        workload=workload,
        seed=args.seed,
        with_spans=args.out is not None,
        faults=faults,
        policy=policy,
        topology=topology,
        openloop=openloop,
        obs_interval_ms=args.obs_interval * 1000.0 if with_series else None,
        obs_sample=args.obs_sample,
    )
    cells = [(app, level) for app in apps_needed for level in levels]
    print(
        f"[sweep] {len(cells)} cells x {args.duration:.0f}s simulated, "
        f"{jobs} worker(s) ...",
        file=sys.stderr,
    )
    # One sweep over every app's cells, whatever the worker count: a
    # ten-cell `all` keeps all workers busy instead of draining one app
    # at a time, and only picklable CellResults outlive their cell.
    results = run_cells(
        cells,
        spec,
        jobs=jobs,
        progress=ProgressReporter(len(cells), label="cells"),
    )
    series_cache = {
        app: {level: results[(app, level)] for level in levels}
        for app in apps_needed
    }
    labelled = [
        (f"{app}/L{int(level)}", result) for (app, level), result in results.items()
    ]

    for target in targets:
        app, kind = TARGETS[target]
        series = series_cache[app]
        print()
        if kind == "table":
            table = build_table(series)
            print(table_to_csv(table) if args.csv else render_table(table))
        else:
            figure = build_figure(series)
            print(figure_to_csv(figure) if args.csv else render_figure(figure))

    slo_reports = None
    if objectives is not None:
        from ..obs.slo import evaluate_slo, render_slo_report

        slo_reports = {}
        for label, result in labelled:
            report = evaluate_slo(result.measurements["series"], objectives)
            slo_reports[label] = report
            print()
            print(render_slo_report(label, report))

    availability_tables = None
    if faults is not None:
        availability_tables = [
            build_availability_table(
                app, series_cache[app], scenario=faults.name
            )
            for app in apps_needed
        ]
        for table in availability_tables:
            print()
            print(render_availability_table(table))

    if args.out is not None:
        from ..obs.export import Sweep, write_bundle

        for label, result in labelled:
            print(f"[trace] {label}: {_span_digest(result.spans_state)}", file=sys.stderr)
        written = write_bundle(
            args.out, Sweep(labelled, slo=slo_reports, availability=availability_tables)
        )
        print(f"[out] wrote {', '.join(written)} to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
