"""Tests for the original (direct-JDBC) Pet Store web tier (V1, §4.2).

The centralized configuration runs the web tier that talks to the
database directly.  V1 and V2 must render the same page *content*; only
their communication structure differs — which is what makes V1
catastrophic at the edge (the `ablate_edge_jdbc` ablation).
"""

import pytest

from repro.apps.petstore import build_application, populate_petstore
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.middleware.web import WebRequest, http_get
from repro.simnet.kernel import Environment
from repro.simnet.monitor import Trace
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process


@pytest.fixture(scope="module")
def systems():
    """(V1 centralized system, V2 façade system) over identical data."""
    built = {}
    for label, level in (("v1", PatternLevel.CENTRALIZED), ("v2", PatternLevel.REMOTE_FACADE)):
        database, catalog = populate_petstore(Streams(123))
        env = Environment()
        testbed = build_testbed(env, TestbedConfig())
        trace = Trace()
        system = distribute(
            env, testbed, build_application(), level, database, trace=trace
        )
        built[label] = (env, system, catalog)
    return built


def _get(env, system, page, params, client="client-main-0"):
    def proc():
        request = WebRequest(page=page, params=dict(params),
                             session_id="v1-test", client_node=client)
        response = yield from http_get(env, system.entry_server_for(client), request)
        return response

    return run_process(env, proc())


@pytest.mark.parametrize("page,params_key", [
    ("Category", "category_id"),
    ("Product", "product_id"),
    ("Item", "item_id"),
])
def test_v1_and_v2_render_identical_data(systems, page, params_key):
    env1, system1, catalog = systems["v1"]
    env2, system2, _catalog2 = systems["v2"]
    key_values = {
        "category_id": catalog.category_ids[0],
        "product_id": catalog.product_ids[0],
        "item_id": catalog.item_ids[0],
    }
    params = {params_key: key_values[params_key]}
    v1 = _get(env1, system1, page, params)
    v2 = _get(env2, system2, page, params)
    assert v1.status == v2.status == 200
    # Same listing sizes / same entity data regardless of access path.
    if page == "Category":
        assert v1.data["products"] == v2.data["products"]
    elif page == "Product":
        assert v1.data["items"] == v2.data["items"]
    else:
        assert v1.data["quantity"] == v2.data["quantity"]
        assert v1.data["item"]["id"] == v2.data["item"]["id"]


def test_v1_search_matches_v2(systems):
    env1, system1, catalog = systems["v1"]
    env2, system2, _ = systems["v2"]
    keyword = catalog.keywords[0]
    v1 = _get(env1, system1, "Search", {"keyword": keyword})
    v2 = _get(env2, system2, "Search", {"keyword": keyword})
    assert v1.data["matches"] == v2.data["matches"] > 0


def test_v1_issues_multiple_jdbc_statements_per_page(systems):
    env, system, catalog = systems["v1"]
    trace = system.trace
    before = len(trace.by_kind("jdbc"))
    _get(env, system, "Category", {"category_id": catalog.category_ids[1]})
    jdbc_calls = [
        record for record in trace.by_kind("jdbc")[before:]
        if record.page == "Category"
    ]
    # The V1 page queries the category row and the product list separately.
    assert len(jdbc_calls) == 2


def test_v2_issues_no_web_tier_jdbc(systems):
    env, system, catalog = systems["v2"]
    trace = system.trace
    before = len(trace.by_kind("jdbc"))
    _get(env, system, "Item", {"item_id": catalog.item_ids[1]})
    new_jdbc = trace.by_kind("jdbc")[before:]
    # The façade (and its entity beans) own all database access; the
    # servlet itself issues none from the web tier... on the main server
    # the façade runs in-VM, so JDBC still happens — but always below the
    # Catalog bean, never from the servlet.  Structural check: every call
    # originated on the main server where the entities live.
    assert all(record.src_node == "main" for record in new_jdbc)
