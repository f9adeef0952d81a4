"""Experiment orchestration: one function per (application, configuration).

``run_configuration`` stands up the full testbed — network, database,
application servers, client population — runs it for the configured
simulated duration, and returns the response-time monitor plus the
deployed system for inspection.  ``run_series`` sweeps all five pattern
levels, which is exactly the data behind Tables 6/7 and Figures 7/8.
:class:`RunSpec` is the one declaration of how a cell is run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..apps import petstore, rubis
from ..core.distribution import DeployedSystem, distribute
from ..core.patterns import PAPER_LEVELS, PatternLevel
from ..core.policy import PlacementPolicy
from ..faults.injector import FaultInjector
from ..faults.report import collect_resilience
from ..faults.schedule import FaultSchedule
from ..obs.metrics import MetricsRegistry, collect_cache_stats, collect_system_metrics
from ..obs.spans import SpanRecorder
from ..obs.timeseries import TimeSeriesRecorder
from ..simnet.kernel import Environment
from ..simnet.monitor import ResponseTimeMonitor, Trace
from ..simnet.topology import TestbedConfig, TopologyOverrides, build_testbed
from ..core.usage import WeightedPattern
from ..workload.generator import LoadGenerator, WorkloadConfig
from ..workload.openloop import OpenLoopConfig, OpenLoopGenerator, TransitionMatrixPattern
from . import calibration

__all__ = [
    "AppSpec",
    "APPS",
    "ExperimentResult",
    "RunSpec",
    "run_configuration",
    "run_series",
]


@dataclass(frozen=True)
class AppSpec:
    """Everything the runner needs to know about one application."""

    name: str
    build_application: Callable
    populate: Callable
    browser_pattern: Callable
    writer_pattern: Callable
    writer_group: str
    costs: object
    db_costs: object
    testbed_config: Callable
    browser_pages: tuple
    writer_pages: tuple
    # catalog -> {query_id: [param tuples]} used to pre-warm query caches.
    warm_queries: Optional[Callable] = None


APPS: Dict[str, AppSpec] = {
    "petstore": AppSpec(
        name="petstore",
        build_application=petstore.build_application,
        populate=petstore.populate_petstore,
        browser_pattern=petstore.browser_pattern,
        writer_pattern=petstore.buyer_pattern,
        writer_group="buyer",
        costs=calibration.PETSTORE_COSTS,
        db_costs=calibration.PETSTORE_DB_COSTS,
        testbed_config=calibration.petstore_testbed_config,
        browser_pages=tuple(petstore.BROWSER_PAGES),
        writer_pages=tuple(petstore.BUYER_PAGES),
        warm_queries=lambda catalog: {
            "petstore.products_of_category": [(c,) for c in catalog.category_ids],
            "petstore.items_of_product": [(p,) for p in catalog.product_ids],
        },
    ),
    "rubis": AppSpec(
        name="rubis",
        build_application=rubis.build_application,
        populate=rubis.populate_rubis,
        browser_pattern=rubis.browser_pattern,
        writer_pattern=rubis.bidder_pattern,
        writer_group="bidder",
        costs=calibration.RUBIS_COSTS,
        db_costs=calibration.RUBIS_DB_COSTS,
        testbed_config=calibration.rubis_testbed_config,
        browser_pages=tuple(rubis.BROWSER_PAGES),
        writer_pages=tuple(rubis.BIDDER_PAGES),
        warm_queries=lambda catalog: {
            "rubis.all_categories": [()],
            "rubis.all_regions": [()],
            "rubis.items_in_category": [(c,) for c in catalog.category_ids],
            "rubis.items_in_category_region": [
                (c, r) for c in catalog.category_ids for r in catalog.region_ids
            ],
            "rubis.bid_history": [(i,) for i in catalog.item_ids],
            "rubis.user_comments": [(u,) for u in catalog.user_ids],
        },
    ),
}


@dataclass
class ExperimentResult:
    """Outcome of one configuration run."""

    app: str
    level: PatternLevel
    monitor: ResponseTimeMonitor
    system: DeployedSystem
    # LoadGenerator (closed loop) or OpenLoopGenerator (open loop); both
    # expose the reporting surface the tables and artifacts consume.
    generator: object
    wall_seconds: float
    # CPU seconds over the same region as ``wall_seconds``; benchmarks
    # gate on this because it is immune to scheduler-preemption noise on
    # busy hosts (a big effect on 1-CPU CI runners).
    cpu_seconds: float = 0.0
    trace: Optional[Trace] = None
    spans: Optional[SpanRecorder] = None
    metrics: Optional[MetricsRegistry] = None
    # Windowed telemetry (None unless an obs interval was requested).
    series: Optional[TimeSeriesRecorder] = None
    # Query-cache and replica counters, collected before the system is
    # dropped — previously this evidence died with the run.
    cache_stats: Optional[dict] = None
    # Canonical resilience snapshot (all-zero in fault-free runs) and the
    # injector that produced it (None when no schedule was installed).
    resilience: Optional[dict] = None
    fault_injector: Optional[FaultInjector] = None
    # Row label for tables/figures (a custom policy's name; None for the
    # canned configurations, which label themselves by level).
    label: Optional[str] = None
    # Effective topology of the run (edge count, WAN latency, client
    # groups) for results/metrics artifacts.
    topology: Optional[dict] = None

    def mean(self, group: str, page: str) -> float:
        return self.monitor.mean(group, page)

    def session_mean(self, group: str) -> float:
        return self.monitor.session_mean(group)

    def groups(self) -> List[str]:
        return self.monitor.groups()

    @property
    def spans_state(self) -> Optional[dict]:
        """Picklable span-table snapshot (None when tracing was off)."""
        return self.spans.to_state() if self.spans is not None else None

    @property
    def metrics_state(self) -> Optional[dict]:
        """Picklable metrics snapshot (None when metrics were off)."""
        return self.metrics.to_state() if self.metrics is not None else None

    @property
    def series_state(self) -> Optional[dict]:
        """Picklable time-series snapshot (None when telemetry was off)."""
        return self.series.to_state() if self.series is not None else None

    @property
    def trace_summary(self):
        """Trace digest with resilience counters folded in (None without trace)."""
        if self.trace is None:
            return None
        snapshot = self.resilience or {}
        summary = replace(
            self.trace.summary(),
            retries=snapshot.get("rmi_retries", 0),
            timeouts=snapshot.get("rmi_timeouts", 0),
            failovers=snapshot.get("failovers", 0),
            dropped_updates=snapshot.get("dropped_updates", 0),
            dropped_sessions=snapshot.get("dropped_sessions", 0),
        )
        if self.spans is not None and self.spans.sample_rate < 1.0:
            summary = replace(
                summary,
                span_sample_rate=self.spans.sample_rate,
                spans_sampled=self.spans.sampled_requests,
                spans_skipped=self.spans.skipped_requests,
            )
        return summary


def topology_dict(config: TestbedConfig) -> dict:
    """The artifact-facing summary of a testbed config."""
    return {
        "edge_servers": config.edge_servers,
        "wan_latency_ms": config.wan_latency,
        "clients_per_group": config.clients_per_group,
    }


@dataclass(frozen=True)
class RunSpec:
    """How to run a cell: every option except which (app, level) it is.

    The one declaration of the per-cell options.  ``run_configuration``,
    ``run_series`` and ``run_cells`` take a spec, the worker pool ships
    it, and their keyword form is ``replace(spec or RunSpec(), **options)``
    — so a new option is one new field here, and a misspelt one is a
    ``TypeError`` naming it.  Frozen and picklable: every field is a
    plain value or a frozen dataclass of tuples.
    """

    # Closed-loop client population; None is the paper's default workload.
    workload: Optional[WorkloadConfig] = None
    seed: int = calibration.MASTER_SEED
    with_trace: bool = False
    with_spans: bool = False
    with_metrics: bool = False
    # None or an empty schedule installs nothing at all — no kernel
    # events, no RNG draws — so fault-free runs stay byte-identical.
    faults: Optional[FaultSchedule] = None
    # Explicit placement policy; the cell's level is then ignored and the
    # policy's metadata level picks the application era.
    policy: Optional[PlacementPolicy] = None
    # Overrides of the app's calibrated testbed knobs.
    topology: Optional[TopologyOverrides] = None
    # Swaps the closed-loop population for the open-loop arrival engine
    # (:mod:`repro.workload.openloop`); ``workload`` is then ignored and
    # browser sessions become Markov walks over the app's page mix.
    openloop: Optional[OpenLoopConfig] = None
    # Windowed telemetry: a kernel sampler snapshots counters/gauges every
    # interval and the generator streams response times into per-window
    # histograms (:mod:`repro.obs.timeseries`).  None installs no sampler.
    obs_interval_ms: Optional[float] = None
    # Deterministic fraction of sessions kept in the span table (hash of
    # the session id, not RNG), so tracing stays bounded at 10^6 sessions.
    obs_sample: float = 1.0
    # Stand-in for the paper's measurement-excluded warm-up hour:
    # read-only replicas and query caches start hot.
    warm_replicas: bool = True


def sweep_levels(policy: Optional[PlacementPolicy], levels=None) -> List[PatternLevel]:
    """The configurations a run covers.

    A policy is its own single configuration (its metadata level);
    otherwise the requested ``levels``, by default the paper's five.
    """
    if policy is not None:
        return [policy.effective_level()]
    return [PatternLevel(level) for level in (levels or PAPER_LEVELS)]


def run_configuration(
    app: str,
    level: PatternLevel,
    spec: Optional[RunSpec] = None,
    *,
    browser_pattern: Optional[Callable] = None,
    **options,
) -> ExperimentResult:
    """Run one (application, configuration) cell of the evaluation.

    ``spec`` (or its keyword form: any :class:`RunSpec` field as an
    option) says how.  ``browser_pattern`` optionally replaces the app's
    stock browse mix: a callable taking the populated catalog and
    returning a usage pattern, exactly like
    :attr:`AppSpec.browser_pattern` — a direct keyword, not a spec field,
    because a callable cannot cross the worker pool.
    """
    from ..middleware.context import reset_ids
    from ..simnet.rng import Streams

    spec = replace(spec or RunSpec(), **options)
    reset_ids()
    app_spec = APPS[app]
    policy, openloop = spec.policy, spec.openloop
    (level,) = sweep_levels(policy, [level])
    workload = spec.workload or calibration.default_workload()

    streams = Streams(spec.seed)
    database, catalog = app_spec.populate(streams)
    env = Environment()
    config = app_spec.testbed_config()
    if spec.topology is not None:
        config = spec.topology.apply(config)
    testbed = build_testbed(env, config)
    trace = Trace(max_records=2_000_000) if spec.with_trace else None
    spans = (
        SpanRecorder(max_spans=2_000_000, sample_rate=spec.obs_sample)
        if spec.with_spans
        else None
    )
    metrics = MetricsRegistry() if spec.with_metrics else None
    application = app_spec.build_application(level, catalog=catalog)
    system = distribute(
        env,
        testbed,
        application,
        policy if policy is not None else level,
        database,
        costs=app_spec.costs,
        db_cost_model=app_spec.db_costs,
        trace=trace,
        spans=spans,
        metrics=metrics,
        streams=streams,
    )
    if system.cluster is not None:
        # The raft heartbeat/election driver is horizon-bounded: the load
        # generators run the kernel to exhaustion, so an open-ended
        # driver would never let the simulation drain.
        horizon_ms = (
            openloop.duration_ms if openloop is not None else workload.duration_ms
        )
        system.cluster.start(horizon_ms)
    if spec.warm_replicas:
        system.warm_replicas()
        if app_spec.warm_queries is not None:
            system.warm_query_caches(app_spec.warm_queries(catalog))
    injector = None
    if spec.faults is not None and not spec.faults.empty:
        injector = FaultInjector(spec.faults, streams).install(env, system)
    browser_factory = browser_pattern or app_spec.browser_pattern
    if openloop is not None:
        browser = browser_factory(catalog)
        if isinstance(browser, WeightedPattern):
            browser = TransitionMatrixPattern(browser)
        generator = OpenLoopGenerator(
            system,
            streams,
            browser,
            app_spec.writer_pattern(catalog),
            config=openloop,
            writer_group_name=app_spec.writer_group,
        )
    else:
        generator = LoadGenerator(
            system,
            streams,
            browser_factory(catalog),
            app_spec.writer_pattern(catalog),
            config=workload,
            writer_group_name=app_spec.writer_group,
        )
    series = None
    if spec.obs_interval_ms is not None:
        series = TimeSeriesRecorder(interval_ms=spec.obs_interval_ms)
        generator.timeseries = series
        # Install after warm-up/fault setup so the sampler's baseline
        # snapshot excludes construction-time counter churn, and before
        # run() so window boundaries start at t=0.
        series.install(env, system, generator, faults=spec.faults)
    started = time.perf_counter()
    cpu_started = time.process_time()
    monitor = generator.run(env)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    # Close staleness windows before the metrics snapshot reads them.
    resilience = collect_resilience(system, generator=generator)
    if metrics is not None:
        collect_system_metrics(metrics, system, generator=generator)
    return ExperimentResult(
        app=app,
        level=level,
        monitor=monitor,
        system=system,
        generator=generator,
        wall_seconds=wall,
        cpu_seconds=cpu,
        trace=trace,
        spans=spans,
        metrics=metrics,
        series=series,
        cache_stats=collect_cache_stats(system),
        resilience=resilience,
        fault_injector=injector,
        label=policy.name if policy is not None else None,
        topology=topology_dict(config),
    )


def run_cell(
    app: str, level: PatternLevel, spec: RunSpec, profile: bool = False
) -> ExperimentResult:
    """One cell of a sweep, optionally under cProfile.

    ``profile=True`` dumps the top-25 cumulative entries plus a
    per-subsystem attribution to stderr (see
    :mod:`repro.experiments.profile`).  Results are unchanged — the
    profiler only costs wall-clock time.
    """
    if not profile:
        return run_configuration(app, level, spec)
    from .profile import dump_cell_profile, profile_call

    result, stats = profile_call(run_configuration, app, level, spec)
    dump_cell_profile(f"{app} L{int(level)}", stats, sys.stderr)
    return result


def run_series(
    app: str,
    levels=None,
    spec: Optional[RunSpec] = None,
    *,
    jobs: Optional[int] = None,
    progress=None,
    profile: bool = False,
    **options,
) -> Dict[PatternLevel, "ExperimentResult"]:
    """All five configurations of one application (Tables 6/7).

    ``jobs`` selects the execution strategy: ``None`` or ``1`` runs the
    cells serially in this process and returns full
    :class:`ExperimentResult` objects (live system, generator, trace);
    any other value hands the cells to
    :func:`~repro.experiments.parallel.run_cells` and returns picklable
    :class:`~repro.experiments.parallel.CellResult` objects instead.
    Both forms feed ``build_table`` / ``build_figure`` and produce
    byte-identical output for a given seed — cells are seeded
    independently, so results do not depend on who ran them or in what
    order they finished.

    ``profile=True`` profiles each cell (see :func:`run_cell`).
    Profiling is serial-only: ``jobs != 1`` is downgraded to serial with
    a stderr warning (results are identical either way; only the wall
    clock differs).
    """
    spec = replace(spec or RunSpec(), **options)
    levels = sweep_levels(spec.policy, levels)
    if profile and jobs not in (None, 1):
        from .profile import warn_forced_serial

        warn_forced_serial(jobs, sys.stderr)
        jobs = 1
    if jobs not in (None, 1):
        from .parallel import run_cells

        cells = run_cells(
            [(app, level) for level in levels], spec, jobs=jobs, progress=progress
        )
        return {level: cells[(app, level)] for level in levels}
    results: Dict[PatternLevel, ExperimentResult] = {}
    for level in levels:
        results[level] = run_cell(app, level, spec, profile)
        if progress is not None:
            progress.cell_done(app, level, results[level].wall_seconds)
    return results
