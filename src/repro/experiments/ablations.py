"""Ablations of the design choices the paper calls out.

Each function isolates one mechanism and returns a small dict of
measured latencies (ms), so benchmarks and tests can assert the
direction and rough magnitude of the effect:

* ``ablate_stub_caching`` — EJBHomeFactory home/remote stub caching
  (§4.2): without it, every façade call pays a remote JNDI lookup and a
  stub-creation round trip.
* ``ablate_entity_lifecycle`` — the paper's §3.4 baseline modifications:
  ``ejbStore`` on read-only transactions and the extra
  ``ejbFindByPrimaryKey`` database call.
* ``ablate_keep_alive`` — HTTP keep-alive would remove one of the two
  WAN round trips of the centralized configuration (§4.1).
* ``ablate_refresh_mode`` — push vs pull replica refresh (§4.3): pull
  penalizes the first reader after every invalidation.
* ``ablate_edge_jdbc`` — the anti-pattern §4.2 warns about: web tier at
  the edge keeping its direct JDBC access, so every page pays multiple
  wide-area database round trips.
* ``ablate_commit_batch`` — write latency vs cart size under blocking
  (§4.3) and asynchronous (§4.5) updates: "the response time for write
  operations is proportional to the number of individual fine-grained
  updates triggered by a single façade call".
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..apps import petstore
from ..apps.dataset import load_dataset
from ..core.distribution import distribute
from ..core.patterns import PatternLevel
from ..middleware.descriptors import RefreshMode
from ..simnet.kernel import Environment
from ..simnet.rng import Streams
from ..simnet.topology import build_testbed
from . import calibration
from .probes import PageProbe, measure_pages
from .progress import ProgressReporter

# Canonical order: results are always reported in this sequence, no
# matter which worker finishes first.
ABLATIONS: Tuple[str, ...] = (
    "ablate_stub_caching",
    "ablate_entity_lifecycle",
    "ablate_keep_alive",
    "ablate_refresh_mode",
    "ablate_edge_jdbc",
    "ablate_commit_batch",
)

__all__ = list(ABLATIONS) + ["ABLATIONS", "run_all_ablations"]

_EDGE_CLIENT = "client-edge1-0"
_MAIN_CLIENT = "client-main-0"


def _petstore_system(level, costs, seed=7, mutate_app=None):
    """Stand up Pet Store at ``level`` with the given cost profile."""
    streams = Streams(seed)
    database, catalog = load_dataset(petstore.populate_petstore, streams)
    env = Environment()
    testbed = build_testbed(env, calibration.petstore_testbed_config())
    application = petstore.build_application()
    if mutate_app is not None:
        mutate_app(application)
    system = distribute(
        env,
        testbed,
        application,
        PatternLevel(level),
        database,
        costs=costs,
        db_cost_model=calibration.PETSTORE_DB_COSTS,
    )
    system.warm_replicas()
    return env, system, catalog


def ablate_stub_caching() -> Dict[str, float]:
    """Category page from an edge, with and without stub caching."""
    results = {}
    for label, enabled in (("cached", True), ("uncached", False)):
        env, system, catalog = _petstore_system(
            PatternLevel.REMOTE_FACADE, calibration.PETSTORE_COSTS
        )
        if not enabled:
            for server in system.servers.values():
                server.home_cache.enabled = False
        pages = [("Category", {"category_id": catalog.category_ids[0]})]
        results[label] = measure_pages(
            system, env, _EDGE_CLIENT, pages, repeats=4, discard=1
        )["Category"]
    return results


def ablate_entity_lifecycle() -> Dict[str, float]:
    """Verify Signin with and without the paper's §3.4 entity fixes."""
    results = {}
    optimized = calibration.PETSTORE_COSTS
    unoptimized = optimized.variant(
        store_on_read_only_tx=True, bmp_find_extra_db_call=True
    )
    for label, costs in (("optimized", optimized), ("unoptimized", unoptimized)):
        env, system, catalog = _petstore_system(PatternLevel.CENTRALIZED, costs)
        pages = [
            ("Verify Signin", {"user_id": catalog.user_ids[0], "password": "pw-0"}),
            ("Item", {"item_id": catalog.item_ids[0]}),
        ]
        measured = measure_pages(system, env, _MAIN_CLIENT, pages, repeats=4, discard=1)
        results[f"{label}:verify"] = measured["Verify Signin"]
        results[f"{label}:item"] = measured["Item"]
    return results


def ablate_keep_alive() -> Dict[str, float]:
    """Centralized remote page cost with and without HTTP keep-alive."""
    results = {}
    for label, keep_alive in (("no-keep-alive", False), ("keep-alive", True)):
        costs = calibration.PETSTORE_COSTS.variant(http_keep_alive=keep_alive)
        env, system, catalog = _petstore_system(PatternLevel.CENTRALIZED, costs)
        pages = [("Main", {})]
        results[label] = measure_pages(
            system, env, _EDGE_CLIENT, pages, repeats=4, discard=1
        )["Main"]
    return results


def ablate_refresh_mode() -> Dict[str, float]:
    """Read latency right after a write: push vs pull replica refresh."""

    def make_pull(application):
        for descriptor in application.components.values():
            if descriptor.read_mostly is not None:
                descriptor.read_mostly = replace(
                    descriptor.read_mostly, refresh_mode=RefreshMode.PULL
                )

    results = {}
    for label, mutate in (("push", None), ("pull", make_pull)):
        env, system, catalog = _petstore_system(
            PatternLevel.STATEFUL_CACHING,
            calibration.PETSTORE_COSTS,
            mutate_app=mutate,
        )
        item_id = catalog.item_ids[0]
        user = catalog.user_ids[0]
        script = [
            ("Item", {"item_id": item_id}),                      # warm the replica
            ("Verify Signin", {"user_id": user, "password": "pw-0"}),
            ("Shopping Cart", {"item_id": item_id, "quantity": 1}),
            ("Commit Order", {}),                                 # invalidates Inventory
            ("Item", {"item_id": item_id}),                       # read after write
        ]
        probe = PageProbe(system, _EDGE_CLIENT)
        outcome = probe.run(env, script, repeats=3)
        results[label] = outcome.mean("Item", discard=0)
        results[f"{label}:commit"] = outcome.mean("Commit Order", discard=0)
    return results


def ablate_edge_jdbc() -> Dict[str, float]:
    """Edge web tier with direct JDBC vs the remote façade (§4.2)."""
    results = {}
    # Façade: the proper level-2 application.
    env, system, catalog = _petstore_system(
        PatternLevel.REMOTE_FACADE, calibration.PETSTORE_COSTS
    )
    pages = [
        ("Category", {"category_id": catalog.category_ids[0]}),
        ("Item", {"item_id": catalog.item_ids[0]}),
    ]
    measured = measure_pages(system, env, _EDGE_CLIENT, pages, repeats=4, discard=1)
    results["facade:category"] = measured["Category"]
    results["facade:item"] = measured["Item"]
    # Anti-pattern: deploy the V1 (direct-JDBC) servlets at the edge.
    # The original web tier also opened/recycled un-pooled connections and
    # traversed results in small cursor batches ("verbose communication
    # with the database server", §4.2).
    def direct_jdbc_everywhere(application):
        for descriptor in application.components.values():
            if descriptor.central_impl is not None:
                descriptor.impl = descriptor.central_impl

    env, system, catalog = _petstore_system(
        PatternLevel.REMOTE_FACADE,
        calibration.PETSTORE_COSTS,
        mutate_app=direct_jdbc_everywhere,
    )
    from ..rdbms.jdbc import JdbcConfig

    for server in system.servers.values():
        server.jdbc_config = JdbcConfig(pooled=False, fetch_size=5)
    measured = measure_pages(system, env, _EDGE_CLIENT, pages, repeats=4, discard=1)
    results["edge-jdbc:category"] = measured["Category"]
    results["edge-jdbc:item"] = measured["Item"]
    return results


def ablate_commit_batch(cart_sizes=(1, 2, 4, 8)) -> Dict[str, Dict[int, float]]:
    """Commit latency vs cart size, blocking (§4.3) vs async (§4.5)."""
    results: Dict[str, Dict[int, float]] = {"sync": {}, "async": {}}
    for label, level in (("sync", PatternLevel.STATEFUL_CACHING),
                         ("async", PatternLevel.ASYNC_UPDATES)):
        for size in cart_sizes:
            env, system, catalog = _petstore_system(
                level, calibration.PETSTORE_COSTS, seed=11 + size
            )
            user = catalog.user_ids[0]
            script = [("Verify Signin", {"user_id": user, "password": "pw-0"})]
            for index in range(size):
                script.append(
                    ("Shopping Cart", {"item_id": catalog.item_ids[index], "quantity": 1})
                )
            script.append(("Commit Order", {}))
            probe = PageProbe(system, _EDGE_CLIENT)
            outcome = probe.run(env, script, repeats=2)
            results[label][size] = outcome.last("Commit Order")
    return results


def _run_ablation(name: str) -> Tuple[str, Dict, float]:
    """Worker entry point: run one ablation, return (name, outcome, wall)."""
    started = time.perf_counter()
    outcome = globals()[name]()
    return name, outcome, time.perf_counter() - started


def run_all_ablations(
    jobs: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
) -> Dict[str, Dict]:
    """Run every ablation, optionally fanned out across worker processes.

    Each ablation stands up its own seeded environments, so they are as
    independent as the main sweep's cells.  Results come back keyed in
    :data:`ABLATIONS` order regardless of completion order.
    """
    from .parallel import default_jobs

    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    outcomes: Dict[str, Dict] = {}
    if jobs == 1:
        for name in ABLATIONS:
            name, outcome, wall = _run_ablation(name)
            outcomes[name] = outcome
            if progress is not None:
                progress.done(name, wall)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ABLATIONS))) as pool:
            futures = [pool.submit(_run_ablation, name) for name in ABLATIONS]
            for future in as_completed(futures):
                name, outcome, wall = future.result()
                outcomes[name] = outcome
                if progress is not None:
                    progress.done(name, wall)
    return {name: outcomes[name] for name in ABLATIONS}
