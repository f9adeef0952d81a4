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

``--out DIR`` writes the run's artifact bundle (:data:`repro.obs.export.BUNDLE`),
``--slo`` evaluates objectives per telemetry window, ``--faults`` injects
a fault scenario, ``--policy FILE`` runs a declarative placement policy
instead of the canned levels, and ``plan`` prints a policy's deployment
plan and design-rule precheck without simulating::

    python -m repro.experiments table7 --workload open --arrival pareto \\
        --scenario flash-crowd --session-rate 20 --max-sessions 5000
    python -m repro.experiments table6 --edges 4 --wan-latency 50
    python -m repro.experiments plan --app petstore --policy my-policy.json

The flags are one table, :data:`OPTIONS`: each row names the
:class:`~repro.experiments.runner.RunSpec` field (or the field of a
config the spec holds) it sets and the ``[section]`` its errors print
under.  Every input is checked before any cell runs; a bad one prints
``[section] message`` and exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

from ..apps.dataset import load_dataset
from ..core.patterns import PatternLevel
from ..core.planner import plan_deployment
from ..core.policy import level_policy, load_policy
from ..core.rules import precheck
from ..faults.report import build_availability_table, render_availability_table
from ..faults.scenarios import SCENARIOS, default_edges, load_schedule
from ..obs.slo import evaluate_slo, load_slo, render_slo_report
from ..simnet.kernel import Environment
from ..simnet.rng import Streams
from ..simnet.topology import TestbedConfig, TopologyOverrides, build_testbed
from ..workload.openloop import ARRIVALS, SCENARIOS as OPENLOOP_SCENARIOS, OpenLoopConfig
from .calibration import MASTER_SEED, SIM_DURATION_MS, SIM_WARMUP_MS, default_workload
from .figures import build_figure, figure_to_csv, render_figure
from .parallel import default_jobs, run_cells
from .progress import ProgressReporter
from .runner import APPS, RunSpec, sweep_levels
from .tables import build_table, render_table, table_to_csv

TARGETS = {
    "table6": ("petstore", "table"),
    "table7": ("rubis", "table"),
    "figure7": ("petstore", "figure"),
    "figure8": ("rubis", "figure"),
}
# A target's kind -> (build, CSV form, text layout).
RENDERINGS = {
    "table": (build_table, table_to_csv, render_table),
    "figure": (build_figure, figure_to_csv, render_figure),
}
ABLATION_TARGET = "ablations"
PLAN_TARGET = "plan"


def seconds(text: str) -> float:
    """A flag given in seconds, parsed to the milliseconds a run takes."""
    return float(text) * 1000.0


class Option(NamedTuple):
    """One CLI flag: what it sets, where its errors go, how it parses
    (``parse``: the ``add_argument`` keywords).

    ``sets`` is ``Type.field``: a :class:`RunSpec` field, a field of a
    config the spec holds (``OpenLoopConfig``, ``TopologyOverrides``), or
    ``loop.field`` for one both loops' configs share; empty for a flag
    the CLI itself reads.  ``check`` is ``(test, rule)`` for a value no
    type checks.
    """

    flag: str
    sets: str
    section: str
    parse: dict
    check: Optional[Tuple[Callable[[float], bool], str]] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def field(self) -> str:
        return self.sets.partition(".")[2]


OPTIONS = (
    Option("--duration", "loop.duration_ms", "workload", dict(
        type=seconds, default=SIM_DURATION_MS, metavar="S",
        help=f"simulated seconds per configuration (default {SIM_DURATION_MS / 1000:g})")),
    Option("--warmup", "loop.warmup_ms", "workload", dict(
        type=seconds, default=SIM_WARMUP_MS, metavar="S",
        help="simulated warm-up seconds excluded from statistics")),
    Option("--seed", "RunSpec.seed", "sweep", dict(type=int, default=MASTER_SEED)),
    Option("--csv", "", "sweep", dict(action="store_true", help="emit CSV, not the text layout")),
    Option("--jobs", "", "sweep", dict(type=int, metavar="N", help=(
        "worker processes (default: one per CPU; 1 runs in-process; the output "
        "is the same for any N)"))),
    Option("--out", "RunSpec.with_spans", "out", dict(metavar="DIR", help=(
        "record spans and the telemetry series and write the artifact bundle "
        "into DIR (check it with python -m repro.obs.validate DIR)"))),
    Option("--obs-interval", "RunSpec.obs_interval_ms", "obs", dict(
        type=seconds, default=1000.0, metavar="S",
        help="telemetry window in simulated seconds (default 1; with --out/--slo)"),
        check=(lambda ms: 0 < ms < math.inf, "must be positive and finite")),
    Option("--obs-sample", "RunSpec.obs_sample", "obs", dict(
        type=float, default=1.0, metavar="RATE",
        help="(with --out) share of sessions whose spans are kept, by a hash "
        "of the session id (default %(default)s: all)"),
        check=(lambda rate: 0.0 < rate <= 1.0, "must be in (0, 1]")),
    # --slo turns the series on, as --out does, and reports on it.
    Option("--slo", "RunSpec.obs_interval_ms", "slo", dict(metavar="FILE", help=(
        "evaluate SLO objectives (JSON, see repro.obs.slo) per telemetry "
        "window: burn rates and fault recovery times"))),
    Option("--faults", "RunSpec.faults", "faults", dict(metavar="SCENARIO", help=(
        f"inject a fault scenario ({', '.join(sorted(SCENARIOS))}) or a schedule "
        "JSON file; prints an availability table per app"))),
    Option("--policy", "RunSpec.policy", "policy", dict(metavar="FILE", help=(
        "run a placement policy (JSON, see repro.core.policy) instead of the "
        "canned configurations"))),
    Option("--edges", "TopologyOverrides.edges", "topology", dict(
        type=int, metavar="N", help="edge servers (default: the paper's 2)")),
    Option("--wan-latency", "TopologyOverrides.wan_latency", "topology", dict(
        type=float, metavar="MS", help="one-way WAN latency in ms (default: the paper's 100)")),
    Option("--clients-per-group", "TopologyOverrides.clients_per_group", "topology", dict(
        type=int, metavar="N", help="client machines per server (default: the paper's 3)")),
    # closed: RunSpec.workload, the paper's population; open: RunSpec.openloop.
    Option("--workload", "RunSpec.openloop", "workload", dict(
        choices=("closed", "open"), default="closed", help=(
            "closed: the paper's fixed population; open: sessions from an "
            "arrival process (see repro.workload.openloop)"))),
    Option("--arrival", "OpenLoopConfig.arrival", "workload", dict(
        choices=ARRIVALS, default="poisson", help="(open loop) inter-arrival law")),
    Option("--scenario", "OpenLoopConfig.scenario", "workload", dict(
        choices=OPENLOOP_SCENARIOS, default="steady", help="(open loop) rate modulation")),
    Option("--session-rate", "OpenLoopConfig.session_rate_per_s", "workload", dict(
        type=float, default=10.0, metavar="PER_S",
        help="(open loop) mean session arrivals per second (default %(default)s)")),
    Option("--max-sessions", "OpenLoopConfig.max_sessions", "workload", dict(
        type=int, default=0, metavar="N",
        help="(open loop) cap on concurrent sessions; arrivals beyond it drop")),
    Option("--think-time", "OpenLoopConfig.think_time_ms", "workload", dict(
        type=seconds, default=7000.0, metavar="S",
        help="(open loop) mean think time between pages (default 7)")),
    Option("--app", "", "plan", dict(
        choices=("petstore", "rubis"), help="(plan) the application (default: both)")),
    Option("--level", "", "sweep", dict(
        type=int, choices=tuple(int(level) for level in PatternLevel), help=(
            "run (or plan) one pattern level instead of the 1-5 sweep (the only "
            "way to level 6 without --policy; ignored with --policy)"))),
)


def _values(args, owner: str) -> dict:
    """The flags' values for ``owner``'s fields, by field name."""
    rows = (row for row in OPTIONS if row.sets.startswith(owner + "."))
    return {row.field: getattr(args, row.dest) for row in rows}


def _loop(args, built):
    """The one generator's config: the closed population or open arrivals."""
    if args.workload == "closed":
        return default_workload(**_values(args, "loop"))
    return OpenLoopConfig(**_values(args, "loop"), **_values(args, "OpenLoopConfig"))


def _topology(args, built):
    overrides = TopologyOverrides(**_values(args, "TopologyOverrides"))
    return None if overrides.empty else overrides


def _faults(args, built):
    if args.faults is None:
        return None
    # Canned scenarios target the edges of the effective topology.
    config = TestbedConfig()
    if built["topology"] is not None:
        config = built["topology"].apply(config)
    loop = built["workload"]
    return load_schedule(args.faults, loop.duration_ms, loop.warmup_ms, default_edges(config))


def _plan(args, built):
    if args.target == PLAN_TARGET and built["policy"] is not None and args.app is None:
        raise ValueError("a policy file names one application's components; pick it with --app")


# Each section's inputs, in the order they are checked: a step returns
# the section's value or raises ValueError / OSError.  The rows' own
# checks run first.
STEPS = {
    "workload": _loop,
    "topology": _topology,
    "obs": lambda args, built: None if args.out is None and args.slo is None else args.obs_interval,
    "policy": lambda args, built: None if args.policy is None else load_policy(args.policy),
    "slo": lambda args, built: None if args.slo is None else load_slo(args.slo),
    "faults": _faults,
    # Before any cell runs: an unusable DIR must not cost a sweep.
    "out": lambda args, built: None if args.out is None else os.makedirs(args.out, exist_ok=True),
    "plan": _plan,
}


def _checked(args, section: str) -> None:
    """The table's own checks of ``section``'s flags."""
    for row in OPTIONS:
        if row.section == section and row.check is not None:
            test, rule = row.check
            if not test(getattr(args, row.dest)):
                raise ValueError(f"{row.flag} {rule}")


def _message(section: str, exc: Exception) -> str:
    """``exc``'s text, a leading field name given as the flag that sets it."""
    text = str(exc)
    for row in OPTIONS:
        if row.section == section and row.field and text.startswith(row.field + " "):
            return row.flag + text[len(row.field):]
    return text


def _echo(args, spec: RunSpec, objectives) -> None:
    """One stderr line for each input that changes the run."""
    say = partial(print, file=sys.stderr)
    if spec.policy is not None:
        level = int(spec.policy.effective_level())
        say(f"[policy] '{spec.policy.name}' from {args.policy} (metadata level {level})")
    if spec.topology is not None:
        knobs = (
            f"{row.flag[2:]}={getattr(args, row.dest)}"
            for row in OPTIONS
            if row.section == "topology" and getattr(args, row.dest) is not None
        )
        say(f"[topology] overrides: {', '.join(knobs)}")
    if objectives is not None:
        say(f"[slo] {len(objectives)} objective(s) from {args.slo}")
    if spec.openloop is not None:
        say(f"[workload] open loop: {args.arrival} arrivals at "
            f"{args.session_rate:g}/s, {args.scenario} scenario")
    if spec.faults is not None:
        say(f"[faults] scenario '{spec.faults.name}' active")


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


def _run_plan(spec: RunSpec, app: Optional[str], levels) -> int:
    """The ``plan`` target: for each app and level, resolve the spec's
    policy (or the level's) onto its testbed and print the plan, the
    policy JSON and the design-rule precheck, simulating nothing.  Returns
    1 when the precheck finds violations; an unresolvable policy raises
    ``ValueError``."""
    exit_code = 0
    for name in [app] if app else sorted(APPS):
        app_spec = APPS[name]
        config = app_spec.testbed_config()
        if spec.topology is not None:
            config = spec.topology.apply(config)
        for level in levels:
            _database, catalog = load_dataset(app_spec.populate, Streams(spec.seed))
            testbed = build_testbed(Environment(), config)
            application = app_spec.build_application(catalog=catalog)
            resolved = spec.policy
            if resolved is None:
                resolved = level_policy(level, application)
            try:
                plan = plan_deployment(
                    application, testbed.main_server, list(testbed.edge_servers), resolved
                )
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            report = precheck(plan)
            print(f"== {name} · policy '{resolved.name}' ==")
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
        prog="python -m repro.experiments", description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "target", choices=sorted(TARGETS) + ["all", ABLATION_TARGET, PLAN_TARGET],
        help="artifact to regenerate (or 'plan': print a deployment plan, no simulation)",
    )
    for row in OPTIONS:
        parser.add_argument(row.flag, **row.parse)
    args = parser.parse_args(argv)

    built, section = {}, "sweep"
    try:
        if args.target == ABLATION_TARGET:
            # The ablations run no RunSpec: a flag that sets one is an error.
            for row in OPTIONS:
                section = row.section
                if row.sets and getattr(args, row.dest) != row.parse.get("default"):
                    raise ValueError(f"{row.flag} is not supported for ablations")
        else:
            for section, step in STEPS.items():
                _checked(args, section)
                built[section] = step(args, built)
            loop = built["workload"]
            open_loop = isinstance(loop, OpenLoopConfig)
            spec = RunSpec(
                workload=None if open_loop else loop,
                seed=args.seed,
                with_spans=args.out is not None,
                faults=built["faults"],
                policy=built["policy"],
                topology=built["topology"],
                openloop=loop if open_loop else None,
                obs_interval_ms=built["obs"],
                obs_sample=args.obs_sample,
            )
            _echo(args, spec, built["slo"])
            levels = sweep_levels(spec.policy, [args.level] if args.level else None)
            if args.target == PLAN_TARGET:
                section = "plan"
                return _run_plan(spec, args.app, levels)
    except (ValueError, OSError) as exc:
        print(f"[{section}] {_message(section, exc)}", file=sys.stderr)
        return 2
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)

    if args.target == ABLATION_TARGET:
        from . import ablations

        progress = ProgressReporter(len(ablations.ABLATIONS), label="ablations")
        results = ablations.run_all_ablations(jobs=jobs, progress=progress)
        for name in ablations.ABLATIONS:
            print(f"\n== {name} ==")
            for key, value in results[name].items():
                print(f"  {key}: {value}")
        return 0

    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    apps_needed = sorted({TARGETS[target][0] for target in targets})
    cells = [(app, level) for app in apps_needed for level in levels]
    print(f"[sweep] {len(cells)} cells x {args.duration / 1000:.0f}s simulated, "
          f"{jobs} worker(s) ...", file=sys.stderr)
    # One sweep over every app's cells, whatever the worker count: a
    # ten-cell `all` keeps all workers busy instead of draining one app
    # at a time, and only picklable CellResults outlive their cell.
    results = run_cells(cells, spec, jobs=jobs, progress=ProgressReporter(len(cells)))
    series_cache = {app: {level: results[(app, level)] for level in levels} for app in apps_needed}
    labelled = [(f"{app}/L{int(level)}", result) for (app, level), result in results.items()]

    for target in targets:
        app, kind = TARGETS[target]
        build, to_csv, render = RENDERINGS[kind]
        data = build(series_cache[app])
        print()
        print(to_csv(data) if args.csv else render(data))

    slo_reports = None
    if built["slo"] is not None:
        slo_reports = {}
        for label, result in labelled:
            slo_reports[label] = evaluate_slo(result.measurements["series"], built["slo"])
            print()
            print(render_slo_report(label, slo_reports[label]))

    availability_tables = None
    if spec.faults is not None:
        availability_tables = [
            build_availability_table(app, series_cache[app], scenario=spec.faults.name)
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
