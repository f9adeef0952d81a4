"""Tests for the Pet Store application: data, pages, and behaviour."""

import dataclasses

import pytest

from repro.apps.petstore import (
    BROWSER_PAGES,
    BUYER_PAGES,
    browser_pattern,
    build_application,
    buyer_pattern,
    populate_petstore,
)
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.web import WebRequest, http_get
from repro.simnet.kernel import Environment
from repro.simnet.router import PacketLoss
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process


@pytest.fixture(scope="module")
def catalog_and_db():
    return populate_petstore(Streams(5))


def _system(level, db):
    env = Environment()
    testbed = build_testbed(env, TestbedConfig())
    system = distribute(
        env, testbed, build_application(), PatternLevel(level), db
    )
    system.warm_replicas()
    return env, system


def _get(env, system, client, page, params, session="ps-test"):
    def proc():
        server = system.entry_server_for(client)
        request = WebRequest(
            page=page, params=dict(params), session_id=session, client_node=client
        )
        response = yield from http_get(env, server, request)
        return response

    return run_process(env, proc())


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def test_data_sizes_match_paper(catalog_and_db):
    db, catalog = catalog_and_db
    # "we added five artificial categories, 50 products and 300 items"
    assert len(catalog.category_ids) == 10  # 5 original + 5 artificial
    assert len(catalog.product_ids) == 66
    assert len(catalog.item_ids) == 350
    assert len(db.tables["inventory"]) == 350
    assert len(catalog.user_ids) == 200


def test_referential_integrity(catalog_and_db):
    db, catalog = catalog_and_db
    for category_id, products in catalog.products_by_category.items():
        for product_id in products:
            row = db.execute(
                "SELECT category_id FROM product WHERE id = ?", (product_id,)
            ).first()
            assert row["category_id"] == category_id
    for product_id, items in catalog.items_by_product.items():
        for item_id in items:
            row = db.execute(
                "SELECT product_id FROM item WHERE id = ?", (item_id,)
            ).first()
            assert row["product_id"] == product_id


def test_every_account_has_signon(catalog_and_db):
    db, catalog = catalog_and_db
    assert len(db.tables["signon"]) == len(db.tables["account"])


# ---------------------------------------------------------------------------
# Application descriptor
# ---------------------------------------------------------------------------


def test_application_has_all_pages():
    app = build_application()
    for page in set(BROWSER_PAGES) | set(BUYER_PAGES):
        assert page in app.servlets, page


def test_entities_are_local_only():
    app = build_application()
    for descriptor in app.entities():
        assert not descriptor.remote_interface, descriptor.name


def test_read_mostly_beans_match_paper():
    app = build_application()
    replicated = {
        name for name, d in app.components.items() if d.read_mostly is not None
    }
    assert replicated == {"Category", "Product", "Item", "Inventory"}


def test_centralized_uses_direct_jdbc_servlets():
    from repro.apps.petstore.web import CategoryServletV1, CategoryServletV2

    from repro.core.planner import plan_deployment
    from repro.core.policy import level_policy

    app = build_application()
    apps = {
        level: plan_deployment(app, "main", ["edge1"], level_policy(level, app)).application
        for level in (PatternLevel.CENTRALIZED, PatternLevel.REMOTE_FACADE)
    }
    assert apps[PatternLevel.CENTRALIZED].components["servlet.Category"].impl is CategoryServletV1
    assert apps[PatternLevel.REMOTE_FACADE].components["servlet.Category"].impl is CategoryServletV2


def test_a_servlet_the_policy_leaves_out_runs_on_main_with_direct_jdbc():
    from repro.apps.petstore.web import CategoryServletV1, ProductServletV2

    from repro.core.planner import plan_deployment
    from repro.core.policy import level_policy

    app = build_application()
    facade = level_policy(PatternLevel.REMOTE_FACADE, app)
    components = dict(facade.components)
    del components["servlet.Category"]
    policy = dataclasses.replace(facade, components=components)
    plan = plan_deployment(app, "main", ["edge1", "edge2"], policy)
    assert plan.servers_of("servlet.Category") == ["main"]
    components = plan.application.components
    assert components["servlet.Category"].impl is CategoryServletV1
    assert components["servlet.Product"].impl is ProductServletV2


# ---------------------------------------------------------------------------
# Page behaviour (level 3 system, warm)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def level3(catalog_and_db):
    db, catalog = populate_petstore(Streams(6))
    env, system = _system(PatternLevel.STATEFUL_CACHING, db)
    return env, system, catalog


def test_category_page_lists_products(level3):
    env, system, catalog = level3
    category_id = catalog.category_ids[0]
    response = _get(env, system, "client-main-0", "Category", {"category_id": category_id})
    assert response.status == 200
    assert response.data["products"] == len(catalog.products_by_category[category_id])


def test_item_page_shows_quantity(level3):
    env, system, catalog = level3
    response = _get(env, system, "client-main-0", "Item", {"item_id": catalog.item_ids[0]})
    assert response.data["quantity"] == 10_000
    assert response.data["item"]["id"] == catalog.item_ids[0]


def test_search_finds_breed_keywords(level3):
    env, system, catalog = level3
    response = _get(env, system, "client-main-0", "Search", {"keyword": catalog.keywords[0]})
    assert response.data["matches"] > 0


def test_signin_flow_and_billing(level3):
    env, system, catalog = level3
    session = "buyer-flow-1"
    ok = _get(
        env, system, "client-main-0", "Verify Signin",
        {"user_id": "user3", "password": "pw-3"}, session=session,
    )
    assert ok.data["signed_in"] is True
    billing = _get(env, system, "client-main-0", "Billing", {}, session=session)
    assert billing.data["user_id"] == "user3"


def test_bad_password_rejected(level3):
    env, system, catalog = level3
    response = _get(
        env, system, "client-main-0", "Verify Signin",
        {"user_id": "user3", "password": "wrong"}, session="bad-pw",
    )
    assert response.status == 401
    assert response.data["signed_in"] is False


def test_signon_finder_misses_are_false_but_faults_propagate(catalog_and_db):
    """Only "no such entity" means a failed sign-in: a transport fault
    under the finder reaches the caller, where the session driver counts it."""
    db, _catalog = catalog_and_db
    env, system = _system(1, db)
    main = system.main
    # The BMP finder's own SELECT (off in the calibrated costs) is what
    # makes a missing user a finder miss.
    costs = dataclasses.replace(main.costs, bmp_find_extra_db_call=True)
    ctx = InvocationContext(
        env=env,
        server=main,
        request=RequestInfo("SignOnFacade", "test", "signon", "client-main-0"),
        costs=costs,
    )

    def authenticate(user_id):
        facade = yield from main.lookup(ctx, "SignOnFacade")
        ok = yield from facade.call(ctx, "authenticate", user_id, "pw")
        return ok

    assert run_process(env, authenticate("nobody")) is False

    db_execute = main.db_execute

    def lossy_finder(ctx, sql, args=()):
        if sql.startswith("SELECT user_id FROM signon"):
            raise PacketLoss("main", "db", "jdbc")
        return db_execute(ctx, sql, args)

    main.db_execute = lossy_finder
    with pytest.raises(PacketLoss):
        run_process(env, authenticate("user3"))


def test_full_buyer_session_decrements_inventory(level3):
    env, system, catalog = level3
    item_id = catalog.item_ids[10]
    database = system.db_server.database
    before = database.execute(
        "SELECT quantity FROM inventory WHERE item_id = ?", (item_id,)
    ).scalar()
    session = "buyer-flow-2"
    _get(env, system, "client-main-0", "Verify Signin",
         {"user_id": "user7", "password": "pw-7"}, session=session)
    cart = _get(env, system, "client-main-0", "Shopping Cart",
                {"item_id": item_id, "quantity": 2}, session=session)
    assert cart.data["cart_size"] == 1
    receipt = _get(env, system, "client-main-0", "Commit Order", {}, session=session)
    assert receipt.data["order_id"] >= 100_000
    after = database.execute(
        "SELECT quantity FROM inventory WHERE item_id = ?", (item_id,)
    ).scalar()
    assert after == before - 2
    order_row = database.execute(
        "SELECT user_id, status FROM orders WHERE id = ?", (receipt.data["order_id"],)
    ).first()
    assert order_row == {"user_id": "user7", "status": "PLACED"}


def test_signout_clears_session(level3):
    env, system, catalog = level3
    session = "buyer-flow-3"
    _get(env, system, "client-main-0", "Verify Signin",
         {"user_id": "user9", "password": "pw-9"}, session=session)
    response = _get(env, system, "client-main-0", "Signout", {}, session=session)
    assert response.data["signed_out"] is True
    # Billing now fails because the customer session is gone.
    with pytest.raises(Exception):
        _get(env, system, "client-main-0", "Billing", {}, session=session)


def test_commit_without_items_fails(level3):
    env, system, catalog = level3
    session = "buyer-flow-4"
    _get(env, system, "client-main-0", "Verify Signin",
         {"user_id": "user2", "password": "pw-2"}, session=session)
    with pytest.raises(ValueError):
        _get(env, system, "client-main-0", "Commit Order", {}, session=session)


# ---------------------------------------------------------------------------
# Usage patterns
# ---------------------------------------------------------------------------


def test_browser_sessions_are_20_pages(catalog_and_db):
    _db, catalog = catalog_and_db
    visits = browser_pattern(catalog).session(Streams(9), 0)
    assert len(visits) == 20
    assert visits[0].page == "Main"


def test_browser_item_follows_product(catalog_and_db):
    _db, catalog = catalog_and_db
    pattern = browser_pattern(catalog)
    streams = Streams(10)
    for session_index in range(5):
        visits = pattern.session(streams, session_index)
        for index, visit in enumerate(visits):
            if visit.page == "Item" and index > 0:
                previous = visits[index - 1]
                assert previous.page == "Product"
                product_items = catalog.items_by_product[previous.params["product_id"]]
                assert visit.params["item_id"] in product_items


def test_buyer_script_matches_table3(catalog_and_db):
    _db, catalog = catalog_and_db
    visits = buyer_pattern(catalog).session(Streams(11), 0)
    assert [v.page for v in visits] == BUYER_PAGES


def test_buyer_credentials_are_consistent(catalog_and_db):
    _db, catalog = catalog_and_db
    visits = buyer_pattern(catalog).session(Streams(12), 0)
    signin = next(v for v in visits if v.page == "Verify Signin")
    index = int(signin.params["user_id"].replace("user", ""))
    assert signin.params["password"] == f"pw-{index}"
