"""Experiment orchestration: one function per (application, configuration).

``run_configuration`` stands up the full testbed — network, database,
application servers, client population — runs it for the configured
simulated duration, and returns a :class:`CellResult`: the picklable
outcome plus, in this process only, the live deployment for inspection.
``run_series`` sweeps all five pattern levels, which is exactly the data
behind Tables 6/7 and Figures 7/8.  :class:`RunSpec` is the one
declaration of how a cell is run, :class:`CellResult` the one result.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..apps import petstore, rubis
from ..apps.dataset import load_dataset
from ..core.distribution import DeployedSystem, distribute
from ..core.patterns import PAPER_LEVELS, PatternLevel
from ..core.policy import PlacementPolicy
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..obs.metrics import collect_cache_stats, collect_system_metrics
from ..obs.spans import SpanRecorder
from ..obs.store import MeasurementStore, WholeRun
from ..simnet.kernel import Environment
from ..simnet.topology import TestbedConfig, TopologyOverrides, build_testbed
from ..core.usage import WeightedPattern
from ..workload.generator import LoadGenerator, WorkloadConfig
from ..workload.openloop import OpenLoopConfig, TransitionMatrixPattern
from . import calibration

__all__ = [
    "AppSpec",
    "APPS",
    "CellResult",
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
    warm_queries: Callable


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


# What a result holds only in the process that ran the cell: the live
# simulation objects.  Pickling (and ``from_experiment``) drops them.
IN_PROCESS_FIELDS = ("system", "generator", "spans", "store", "fault_injector")


def _in_process():
    return field(default=None, repr=False, compare=False)


@dataclass
class CellResult:
    """Outcome of one (application, configuration) cell.

    The compared fields are plain data — the measurement store's state
    and canonical snapshots — so two results are ``==`` exactly when the
    simulations agreed, whoever ran them.  Host timings and the
    in-process fields (:data:`IN_PROCESS_FIELDS`) are excluded from
    comparison; the latter are also dropped on pickling, which is how a
    result crosses the worker pool.
    """

    app: str
    level: PatternLevel
    # MeasurementStore.to_state(): the whole-run response cells, the
    # metrics registry and the windowed series (None without windows).
    measurements: dict
    total_requests: int
    # Host seconds around ``generator.run(env)``.  Benchmarks gate on the
    # CPU figure because it is immune to scheduler-preemption noise on
    # busy hosts (a big effect on 1-CPU CI runners).
    wall_seconds: float = field(default=0.0, compare=False)
    cpu_seconds: float = field(default=0.0, compare=False)
    # Observability snapshots (plain dicts, canonical key order): the
    # span table and the query-cache/replica counters.
    spans_state: Optional[dict] = None
    cache_stats: Optional[dict] = None
    # Row label for tables/figures (a custom policy's name; None for the
    # canned configurations, which label themselves by level).
    label: Optional[str] = None
    # Effective topology of the run (edge count, WAN latency, client
    # groups) for results/metrics artifacts.
    topology: Optional[dict] = None
    system: Optional[DeployedSystem] = _in_process()
    generator: Optional[LoadGenerator] = _in_process()
    spans: Optional[SpanRecorder] = _in_process()
    store: Optional[MeasurementStore] = _in_process()
    # None when no fault schedule was installed.
    fault_injector: Optional[FaultInjector] = _in_process()
    _monitor: Optional[WholeRun] = _in_process()

    @classmethod
    def from_experiment(cls, result: "CellResult") -> "CellResult":
        """``result`` without its in-process fields: what a sweep keeps of
        a cell, so ten live deployments do not pile up in memory."""
        return replace(result, **dict.fromkeys(IN_PROCESS_FIELDS))

    def __getstate__(self) -> dict:
        return {**self.__dict__, **dict.fromkeys(IN_PROCESS_FIELDS)}

    @property
    def monitor(self) -> WholeRun:
        """The whole-run response cells, read from ``measurements``."""
        if self._monitor is None:
            self._monitor = WholeRun(self.measurements["whole_run"])
        return self._monitor

    def mean(self, group: str, page: str) -> float:
        return self.monitor.mean(group, page)

    def session_mean(self, group: str) -> float:
        return self.monitor.session_mean(group)

    def groups(self) -> List[str]:
        return self.monitor.groups()


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
    with_spans: bool = False
    # None or an empty schedule installs nothing at all — no kernel
    # events, no RNG draws — so fault-free runs stay byte-identical.
    faults: Optional[FaultSchedule] = None
    # Explicit placement policy; the cell's level is then ignored and the
    # policy's metadata level labels the row.
    policy: Optional[PlacementPolicy] = None
    # Overrides of the app's calibrated testbed knobs.
    topology: Optional[TopologyOverrides] = None
    # Runs the one generator under the open-loop arrival process instead
    # of the closed population (:mod:`repro.workload.openloop`);
    # ``workload`` is then ignored and browser sessions become Markov
    # walks over the app's page mix.
    openloop: Optional[OpenLoopConfig] = None
    # Windowed telemetry: a kernel sampler snapshots counters/gauges every
    # interval and the store bins response times into per-window
    # histograms (:mod:`repro.obs.store`).  None installs no sampler.
    obs_interval_ms: Optional[float] = None
    # Deterministic fraction of sessions kept in the span table (hash of
    # the session id, not RNG), so tracing stays bounded at 10^6 sessions.
    obs_sample: float = 1.0


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
) -> CellResult:
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
    # A finished cell's deployment is reference cycles (kernel, processes,
    # servers) that only the cyclic collector frees.  Collecting before
    # building the next cell holds a sweep to one deployment in memory and
    # keeps that collection out of the timed run.
    gc.collect()
    reset_ids()
    app_spec = APPS[app]
    policy, openloop = spec.policy, spec.openloop
    (level,) = sweep_levels(policy, [level])
    # The one generator's config; the open loop's, when given, wins.
    loop = openloop or spec.workload or calibration.default_workload()

    streams = Streams(spec.seed)
    database, catalog = load_dataset(app_spec.populate, streams)
    env = Environment()
    config = app_spec.testbed_config()
    if spec.topology is not None:
        config = spec.topology.apply(config)
    testbed = build_testbed(env, config)
    spans = (
        SpanRecorder(max_spans=2_000_000, sample_rate=spec.obs_sample)
        if spec.with_spans
        else None
    )
    store = MeasurementStore(warmup=loop.warmup_ms, interval_ms=spec.obs_interval_ms)
    application = app_spec.build_application(catalog=catalog)
    system = distribute(
        env,
        testbed,
        application,
        policy if policy is not None else level,
        database,
        costs=app_spec.costs,
        db_cost_model=app_spec.db_costs,
        trace=spans,
        metrics=store.registry,
        streams=streams,
    )
    if system.cluster is not None:
        # The raft heartbeat/election driver is horizon-bounded: the load
        # generators run the kernel to exhaustion, so an open-ended
        # driver would never let the simulation drain.
        system.cluster.start(loop.duration_ms)
    # Stand-in for the paper's measurement-excluded warm-up hour:
    # read-only replicas and query caches start hot.
    system.warm_replicas()
    system.warm_query_caches(app_spec.warm_queries(catalog))
    injector = None
    if spec.faults is not None and not spec.faults.empty:
        injector = FaultInjector(spec.faults, streams).install(env, system)
    # One generator; the config picks the arrival policy.  The open loop
    # walks the browse mix as a Markov chain.
    browser = (browser_pattern or app_spec.browser_pattern)(catalog)
    if openloop is not None and isinstance(browser, WeightedPattern):
        browser = TransitionMatrixPattern(browser)
    generator = LoadGenerator(
        system,
        streams,
        browser,
        app_spec.writer_pattern(catalog),
        config=loop,
        writer_group_name=app_spec.writer_group,
        store=store,
    )
    if spec.obs_interval_ms is not None:
        # Install after warm-up/fault setup so the sampler's baseline
        # snapshot excludes construction-time counter churn, and before
        # run() so window boundaries start at t=0.
        store.install_sampler(env, system, generator, faults=spec.faults)
    started = time.perf_counter()
    cpu_started = time.process_time()
    generator.run(env)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    collect_system_metrics(store.registry, system, generator=generator)
    return CellResult(
        app=app,
        level=level,
        measurements=store.to_state(),
        total_requests=generator.total_requests(),
        wall_seconds=wall,
        cpu_seconds=cpu,
        spans_state=spans.to_state() if spans is not None else None,
        cache_stats=collect_cache_stats(system),
        label=policy.name if policy is not None else None,
        topology=topology_dict(config),
        system=system,
        generator=generator,
        spans=spans,
        store=store,
        fault_injector=injector,
    )


def run_cell(app: str, level: PatternLevel, spec: RunSpec) -> CellResult:
    """One cell of a sweep (the worker entry), without its in-process fields."""
    return CellResult.from_experiment(run_configuration(app, level, spec))


def run_series(
    app: str,
    levels=None,
    spec: Optional[RunSpec] = None,
    *,
    jobs: Optional[int] = None,
    progress=None,
    **options,
) -> Dict[PatternLevel, CellResult]:
    """All five configurations of one application (Tables 6/7).

    :func:`~repro.experiments.parallel.run_cells` over ``app``'s levels,
    re-keyed by level — same ``jobs`` / ``progress``
    meaning, same results for any worker count.  The results carry no
    live deployment; call :func:`run_configuration` for one.
    """
    from .parallel import run_cells

    spec = replace(spec or RunSpec(), **options)
    levels = sweep_levels(spec.policy, levels)
    cells = run_cells(
        [(app, level) for level in levels],
        spec,
        jobs=jobs,
        progress=progress,
    )
    return {level: cells[(app, level)] for level in levels}
