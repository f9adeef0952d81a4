"""Tests for the RUBiS application: data, pages, and behaviour."""

import pytest

from repro.apps.rubis import (
    BIDDER_PAGES,
    BROWSER_PAGES,
    bidder_pattern,
    browser_pattern,
    build_application,
    populate_rubis,
)
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.middleware.web import WebRequest, http_get
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process


@pytest.fixture(scope="module")
def catalog_and_db():
    return populate_rubis(Streams(8))


def _system(level, db, catalog):
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=True))
    system = distribute(
        env, testbed, build_application(catalog=catalog), PatternLevel(level), db
    )
    system.warm_replicas()
    return env, system


def _get(env, system, client, page, params, session="rb-test"):
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
    # "we added 400 users from 20 regions, selling 400 items belonging to
    # 20 categories"
    assert len(catalog.user_ids) == 400
    assert len(catalog.region_ids) == 20
    assert len(catalog.item_ids) == 400
    assert len(catalog.category_ids) == 20


def test_items_have_valid_sellers_and_categories(catalog_and_db):
    db, catalog = catalog_and_db
    for item_id in catalog.item_ids[:50]:
        row = db.execute(
            "SELECT seller, category FROM items WHERE id = ?", (item_id,)
        ).first()
        assert row["seller"] in catalog.user_ids
        assert row["category"] in catalog.category_ids
        assert catalog.seller_of_item[item_id] == row["seller"]


def test_seeded_bids_are_consistent_with_item_summaries(catalog_and_db):
    db, catalog = catalog_and_db
    for item_id in catalog.item_ids[:40]:
        count = db.execute(
            "SELECT COUNT(*) AS n FROM bids WHERE item_id = ?", (item_id,)
        ).scalar()
        summary = db.execute(
            "SELECT nb_of_bids, max_bid FROM items WHERE id = ?", (item_id,)
        ).first()
        assert summary["nb_of_bids"] == count
        if count:
            top = db.execute(
                "SELECT MAX(bid) AS m FROM bids WHERE item_id = ?", (item_id,)
            ).scalar()
            assert summary["max_bid"] == pytest.approx(top)


def test_region_of_user_mapping(catalog_and_db):
    db, catalog = catalog_and_db
    for user_id in catalog.user_ids[:20]:
        row = db.execute("SELECT region_id FROM users WHERE id = ?", (user_id,)).first()
        assert catalog.region_of_user[user_id] == row["region_id"]


# ---------------------------------------------------------------------------
# Application descriptor
# ---------------------------------------------------------------------------


def test_application_has_all_pages():
    app = build_application()
    for page in set(BROWSER_PAGES) | set(BIDDER_PAGES):
        assert page in app.servlets, page


def test_only_item_and_user_are_read_mostly():
    app = build_application()
    replicated = {
        name for name, d in app.components.items() if d.read_mostly is not None
    }
    # "Read-only BMP versions of Item and User beans were introduced" (§4.3)
    assert replicated == {"RubisItem", "User"}


def test_all_browser_queries_are_cached():
    app = build_application()
    assert len(app.query_caches) == 6  # "caching of all queries" (§4.4)


def test_store_facades_never_move_to_edge():
    app = build_application()
    assert app.components["SB_StoreBid"].edge_from_level is None
    assert app.components["SB_StoreComment"].edge_from_level is None
    assert app.components["SB_ViewItem"].edge_from_level == 3
    assert app.components["SB_PutBid"].edge_from_level == 4


# ---------------------------------------------------------------------------
# Page behaviour (level 4 system, warm)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def level4():
    db, catalog = populate_rubis(Streams(9))
    env, system = _system(PatternLevel.QUERY_CACHING, db, catalog)
    return env, system, catalog


def test_browse_pages_list_catalog(level4):
    env, system, catalog = level4
    response = _get(env, system, "client-main-0", "All Categories", {})
    assert response.data["categories"] == 20
    response = _get(env, system, "client-main-0", "All Regions", {})
    assert response.data["regions"] == 20


def test_region_page_shows_header(level4):
    env, system, catalog = level4
    response = _get(env, system, "client-main-0", "Region", {"region_id": 3})
    assert response.data["region"] == "Region-3"


def test_category_page_lists_items(level4):
    env, system, catalog = level4
    category = catalog.category_ids[0]
    response = _get(env, system, "client-main-0", "Category", {"category_id": category})
    assert response.data["items"] == len(catalog.items_by_category[category])


def test_category_region_page_filters_by_seller_region(level4):
    env, system, catalog = level4
    category = catalog.category_ids[0]
    region = catalog.region_ids[0]
    response = _get(
        env, system, "client-main-0", "Category & Region",
        {"category_id": category, "region_id": region},
    )
    expected = sum(
        1
        for item in catalog.items_by_category[category]
        if catalog.region_of_user[catalog.seller_of_item[item]] == region
    )
    assert response.data["items"] == expected


def test_item_page_shows_bid_summary(level4):
    env, system, catalog = level4
    item_id = catalog.item_ids[0]
    response = _get(env, system, "client-main-0", "Item", {"item_id": item_id})
    db = system.db_server.database
    expected = db.execute(
        "SELECT nb_of_bids FROM items WHERE id = ?", (item_id,)
    ).scalar()
    assert response.data["summary"]["nb_of_bids"] == expected


def test_bids_page_lists_history_with_nicknames(level4):
    env, system, catalog = level4
    db = system.db_server.database
    item_id = db.execute(
        "SELECT item_id FROM bids LIMIT 1"
    ).first()["item_id"]
    response = _get(env, system, "client-main-0", "Bids", {"item_id": item_id})
    expected = db.execute(
        "SELECT COUNT(*) AS n FROM bids WHERE item_id = ?", (item_id,)
    ).scalar()
    assert response.data["bids"] == expected


def test_user_info_lists_comments(level4):
    env, system, catalog = level4
    user_id = catalog.user_ids[0]
    response = _get(env, system, "client-main-0", "User Info", {"user_id": user_id})
    db = system.db_server.database
    expected = db.execute(
        "SELECT COUNT(*) AS n FROM comments WHERE to_user = ?", (user_id,)
    ).scalar()
    assert response.data["user"] == "user1"
    assert response.data["comments"] == expected


def test_put_bid_form_authenticates(level4):
    env, system, catalog = level4
    good = _get(
        env, system, "client-main-0", "Put Bid Form",
        {"user_id": 5, "password": "password5", "item_id": catalog.item_ids[0]},
    )
    assert good.status == 200
    assert good.data["authenticated"] is True
    bad = _get(
        env, system, "client-main-0", "Put Bid Form",
        {"user_id": 5, "password": "wrong", "item_id": catalog.item_ids[0]},
    )
    assert bad.status == 401


def test_store_bid_updates_item_and_history(level4):
    env, system, catalog = level4
    item_id = catalog.item_ids[5]
    db = system.db_server.database
    before = db.execute("SELECT nb_of_bids, max_bid FROM items WHERE id = ?", (item_id,)).first()
    response = _get(
        env, system, "client-main-0", "Store Bid",
        {"user_id": 6, "item_id": item_id, "increment": 7.5},
    )
    after = db.execute("SELECT nb_of_bids, max_bid FROM items WHERE id = ?", (item_id,)).first()
    assert after["nb_of_bids"] == before["nb_of_bids"] + 1
    assert after["max_bid"] > before["max_bid"]
    assert response.data["amount"] == pytest.approx(after["max_bid"])
    bid_row = db.execute(
        "SELECT user_id FROM bids WHERE id = ?", (response.data["bid_id"],)
    ).first()
    assert bid_row["user_id"] == 6


def test_store_comment_adjusts_rating(level4):
    env, system, catalog = level4
    db = system.db_server.database
    before = db.execute("SELECT rating FROM users WHERE id = 9").scalar()
    _get(
        env, system, "client-main-0", "Store Comment",
        {"user_id": 6, "to_user": 9, "item_id": catalog.item_ids[0],
         "rating": 1, "text": "great"},
    )
    after = db.execute("SELECT rating FROM users WHERE id = 9").scalar()
    assert after == before + 1


# ---------------------------------------------------------------------------
# Usage patterns
# ---------------------------------------------------------------------------


def test_browser_sessions_are_40_pages(catalog_and_db):
    _db, catalog = catalog_and_db
    visits = browser_pattern(catalog).session(Streams(14), 0)
    assert len(visits) == 40
    assert visits[0].page == "Main"


def test_browser_weights_emphasize_item_pages(catalog_and_db):
    _db, catalog = catalog_and_db
    pattern = browser_pattern(catalog)
    streams = Streams(15)
    counts = {}
    for session_index in range(40):
        for visit in pattern.session(streams, session_index):
            counts[visit.page] = counts.get(visit.page, 0) + 1
    total = sum(counts.values())
    assert counts["Item"] / total == pytest.approx(0.425, abs=0.06)


def test_bidder_script_matches_table5(catalog_and_db):
    _db, catalog = catalog_and_db
    visits = bidder_pattern(catalog).session(Streams(16), 0)
    assert [v.page for v in visits] == BIDDER_PAGES


def test_bidder_comments_the_items_seller(catalog_and_db):
    _db, catalog = catalog_and_db
    pattern = bidder_pattern(catalog)
    streams = Streams(17)
    for session_index in range(5):
        visits = pattern.session(streams, session_index)
        store_bid = next(v for v in visits if v.page == "Store Bid")
        store_comment = next(v for v in visits if v.page == "Store Comment")
        assert store_comment.params["to_user"] == catalog.seller_of_item[
            store_bid.params["item_id"]
        ]
        assert store_comment.params["user_id"] == store_bid.params["user_id"]
