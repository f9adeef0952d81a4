"""Property test: learned method footprints match the executed SQL.

For every method annotated ``cached_methods`` in RUBiS and Pet Store,
invoke it cold on a level-6 edge and compare the footprint the method
cache *learned* against ground truth taken from the database itself:
the set of tables named by the query plans (joins and index paths
included) of every JDBC statement the invocation actually executed.
The two are derived by different code paths — the cache from the SQL
ASTs flowing through the collector, the ground truth from the planner's
chosen access paths — so agreement means the auto-derivation misses
nothing and invents nothing.  The same case list carries the
result-identity gate: caching may never change what a method returns.
"""

import pytest

from repro.apps import petstore, rubis
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.server import AppServer
from repro.rdbms.sql import Insert, Select, parse_cached
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process


@pytest.fixture(scope="module")
def rubis_data():
    return rubis.populate_rubis(Streams(21))


@pytest.fixture(scope="module")
def petstore_data():
    return petstore.populate_petstore(Streams(22))


def _rubis_cases(catalog):
    return [
        ("SB_BrowseCategories", "get_all", ()),
        ("SB_BrowseCategories", "get_for_region", (catalog.region_ids[0],)),
        ("SB_BrowseRegions", "get_all", ()),
        ("SB_SearchItemsInCategory", "get", (catalog.category_ids[0],)),
        (
            "SB_SearchItemsInCategoryRegion",
            "get",
            (catalog.category_ids[0], catalog.region_ids[0]),
        ),
        ("SB_ViewItem", "get", (catalog.item_ids[0],)),
        ("SB_ViewBidHistory", "get", (catalog.item_ids[0],)),
        ("SB_ViewUserInfo", "get", (catalog.user_ids[0],)),
    ]


def _petstore_cases(catalog):
    return [
        ("Catalog", "get_category_page", (catalog.category_ids[0],)),
        ("Catalog", "get_product_page", (catalog.product_ids[0],)),
        ("Catalog", "get_item_page", (catalog.item_ids[0],)),
        ("Catalog", "get_item_details", (catalog.item_ids[0],)),
    ]


def _cold_system(build_application, database, catalog):
    """A fresh level-6 deployment with cold replicas and caches."""
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=True))
    application = build_application(catalog=catalog)
    system = distribute(
        env, testbed, application, PatternLevel.METHOD_CACHING, database
    )
    return env, system


def _invoke(env, system, component, method, args):
    server = system.servers["edge1"]
    ctx = InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("fp", "test", "fp", "client-edge1-0"),
        costs=server.costs,
    )

    def proc():
        facade = yield from server.lookup(ctx, component)
        result = yield from facade.call(ctx, method, *args)
        return result

    return run_process(env, proc())


def _ground_truth_tables(database, statements):
    """Tables named by the planner's chosen plans for executed statements."""
    tables = set()
    for sql, params in statements:
        statement = parse_cached(sql)
        if isinstance(statement, Select):
            plan = database.explain(statement, params)
            tables.update(
                node.table for node in plan.root.walk() if node.table
            )
        elif isinstance(statement, Insert):
            tables.add(statement.table)
        else:  # UPDATE / DELETE
            tables.add(statement.table)
    return tables


def _assert_footprints(monkeypatch, build_application, database, catalog, cases):
    executed = []
    original = AppServer.db_execute

    def spy(self, ctx, sql, params=()):
        executed.append((sql, params))
        result = yield from original(self, ctx, sql, params)
        return result

    monkeypatch.setattr(AppServer, "db_execute", spy)

    for component, method, args in cases:
        env, system = _cold_system(build_application, database, catalog)
        cache = system.servers["edge1"].method_cache
        assert cache is not None and cache.intercepts(component, method)
        executed.clear()
        direct = _invoke(env, system, component, method, args)
        learned = cache.footprint_of(component, method)
        assert learned is not None, (component, method)
        truth = _ground_truth_tables(database, executed)
        assert set(learned) == truth, (component, method, learned, truth)
        # Annotated methods are read-only: nothing may hit the write set.
        assert (component, method) not in cache.write_violations
        assert truth, (component, method)  # a cold read must touch tables
        # Result identity: the second call is served from the cache and
        # deep-equals what the first one computed through replicas and JDBC.
        hits = cache.stats.hits
        assert _invoke(env, system, component, method, args) == direct
        assert cache.stats.hits == hits + 1, (component, method)


def _annotated(application):
    return {
        (name, method)
        for name, descriptor in application.components.items()
        for method in descriptor.cached_methods
    }


def test_cases_cover_every_annotated_rubis_method(rubis_data):
    _, catalog = rubis_data
    app = rubis.build_application(catalog=catalog)
    covered = {(c, m) for c, m, _ in _rubis_cases(catalog)}
    assert covered == _annotated(app)


def test_cases_cover_every_annotated_petstore_method(petstore_data):
    _, catalog = petstore_data
    app = petstore.build_application(catalog=catalog)
    covered = {(c, m) for c, m, _ in _petstore_cases(catalog)}
    assert covered == _annotated(app)


def test_rubis_footprints_match_executed_statements(monkeypatch, rubis_data):
    database, catalog = rubis_data
    _assert_footprints(
        monkeypatch, rubis.build_application, database, catalog,
        _rubis_cases(catalog),
    )


def test_petstore_footprints_match_executed_statements(monkeypatch, petstore_data):
    database, catalog = petstore_data
    _assert_footprints(
        monkeypatch, petstore.build_application, database, catalog,
        _petstore_cases(catalog),
    )
