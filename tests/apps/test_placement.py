"""Placement tests: the deployment plans match the paper's §4 narrative."""

import pytest

from repro.apps import petstore, rubis
from repro.core.automation import apply_policy
from repro.core.patterns import PatternLevel
from repro.core.planner import plan_deployment
from repro.core.policy import level_policy

ALL = ["main", "edge1", "edge2"]


def _plan(build, level, **kwargs):
    app = build(PatternLevel(level), **kwargs)
    policy = level_policy(PatternLevel(level), app)
    apply_policy(app, policy)
    return plan_deployment(app, "main", ["edge1", "edge2"], policy)


# ---------------------------------------------------------------------------
# Pet Store
# ---------------------------------------------------------------------------


def test_petstore_level1_all_on_main():
    plan = _plan(petstore.build_application, PatternLevel.CENTRALIZED)
    for component, servers in plan.placements.items():
        assert servers == ["main"], component


def test_petstore_level2_placement():
    """§4.2: "deploying all web components (JSPs and servlets) and
    stateful session beans in all three servers"."""
    plan = _plan(petstore.build_application, PatternLevel.REMOTE_FACADE)
    for stateful in ("ShoppingCart", "ShoppingClientController", "CustomerSession"):
        assert plan.servers_of(stateful) == ALL, stateful
    for page in petstore.ALL_PAGES:
        assert plan.servers_of(f"servlet.{page}") == ALL, page
    # Façades and entities stay with the database.
    for central in ("Catalog", "SignOnFacade", "OrderFacade", "Item", "Inventory"):
        assert plan.servers_of(central) == ["main"], central
    assert plan.replicas == {}


def test_petstore_level3_placement():
    """§4.3: read-only beans and the Catalog bean also on the edges."""
    plan = _plan(petstore.build_application, PatternLevel.STATEFUL_CACHING)
    assert plan.servers_of("Catalog") == ALL
    for bean in ("Category", "Product", "Item", "Inventory"):
        assert plan.replicas.get(bean, []) == ALL, bean
    # The buyer-path façades never leave the main server.
    for central in ("SignOnFacade", "CustomerFacade", "OrderFacade"):
        assert plan.servers_of(central) == ["main"], central
    # SignOn/Account/Order have no replicas.
    for bean in ("SignOn", "Account", "Order", "LineItem"):
        assert plan.replicas.get(bean, []) == [], bean


def test_petstore_level4_adds_query_caches_only():
    level3 = _plan(petstore.build_application, PatternLevel.STATEFUL_CACHING)
    level4 = _plan(petstore.build_application, PatternLevel.QUERY_CACHING)
    assert level4.query_cache_servers == ALL
    assert level3.query_cache_servers == []
    assert level4.placements == level3.placements


def test_petstore_level5_adds_subscribers():
    from repro.middleware.updates import UPDATE_SUBSCRIBER

    plan = _plan(petstore.build_application, PatternLevel.ASYNC_UPDATES)
    assert plan.servers_of(UPDATE_SUBSCRIBER) == ALL


# ---------------------------------------------------------------------------
# RUBiS
# ---------------------------------------------------------------------------


def test_rubis_level2_only_web_components_move():
    """§4.2: "RUBiS does not use stateful session beans, so only web
    components were deployed in the edge servers"."""
    plan = _plan(rubis.build_application, PatternLevel.REMOTE_FACADE)
    for page in rubis.ALL_PAGES:
        assert plan.servers_of(f"servlet.{page}") == ALL, page
    for facade in (
        "SB_ViewItem", "SB_ViewBidHistory", "SB_ViewUserInfo",
        "SB_BrowseCategories", "SB_PutBid", "SB_StoreBid",
    ):
        assert plan.servers_of(facade) == ["main"], facade


def test_rubis_level3_view_facades_and_replicas():
    """§4.3: "The read-only beans and SB_ViewBidHistory, SB_ViewItem, and
    SB_ViewUserInfo façade stateless session beans were also deployed on
    the edge servers"."""
    plan = _plan(rubis.build_application, PatternLevel.STATEFUL_CACHING)
    for facade in ("SB_ViewItem", "SB_ViewBidHistory", "SB_ViewUserInfo"):
        assert plan.servers_of(facade) == ALL, facade
    for bean in ("RubisItem", "User"):
        assert plan.replicas.get(bean, []) == ALL, bean
    # Browse/form façades move only with the query caches (level 4).
    for facade in ("SB_BrowseCategories", "SB_PutBid", "SB_PutComment"):
        assert plan.servers_of(facade) == ["main"], facade


def test_rubis_level4_caching_facades_move():
    """§4.4: "The query result caches were naturally incorporated in those
    stateless session beans that make corresponding finder method
    invocations" — so those beans deploy wherever the caches live."""
    plan = _plan(rubis.build_application, PatternLevel.QUERY_CACHING)
    for facade in (
        "SB_BrowseCategories", "SB_BrowseRegions", "SB_SearchItemsInCategory",
        "SB_SearchItemsInCategoryRegion", "SB_PutBid", "SB_PutComment",
    ):
        assert plan.servers_of(facade) == ALL, facade
    # Writers stay centralized forever.
    for facade in ("SB_StoreBid", "SB_StoreComment"):
        assert plan.servers_of(facade) == ["main"], facade


def test_rubis_entities_never_replicate_beyond_item_and_user():
    plan = _plan(rubis.build_application, PatternLevel.ASYNC_UPDATES)
    assert set(plan.replicas) == {"RubisItem", "User"}
    for bean in ("Region", "Category", "Bid", "Comment"):
        assert plan.servers_of(bean) == ["main"], bean
