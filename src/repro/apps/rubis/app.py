"""Assembly of the RUBiS application descriptor.

Placement hints follow §4.3/§4.4: the ``SB_View*`` façades move to the
edge with the read-only replicas (level 3); the browse/search and form
façades move with the query caches (level 4); the ``SB_Store*`` write
façades stay with the database.  RUBiS query caches are **push-based**
("A push-based query update mechanism was implemented", §4.4).
"""

from __future__ import annotations

from ...middleware.descriptors import (
    ApplicationDescriptor,
    ComponentDescriptor,
    ComponentKind,
    Persistence,
    QueryCacheDescriptor,
    ReadMostlyDescriptor,
    RefreshMode,
    TxAttribute,
)
from . import entities, facades, web
from .facades import (
    Q_ALL_CATEGORIES,
    Q_ALL_REGIONS,
    Q_BID_HISTORY,
    Q_ITEMS_IN_CATEGORY,
    Q_ITEMS_IN_CATEGORY_REGION,
    Q_USER_COMMENTS,
)
from .schema import rubis_schemas

__all__ = ["build_application", "BROWSER_PAGES", "BIDDER_PAGES", "ALL_PAGES"]

BROWSER_PAGES = [
    "Main",
    "Browse",
    "All Categories",
    "All Regions",
    "Region",
    "Category",
    "Category & Region",
    "Item",
    "Bids",
    "User Info",
]
BIDDER_PAGES = [
    "Main",
    "Put Bid Auth",
    "Put Bid Form",
    "Store Bid",
    "Put Comment Auth",
    "Put Comment Form",
    "Store Comment",
]
ALL_PAGES = BROWSER_PAGES + BIDDER_PAGES[1:]


def _entity(name, impl, table, read_mostly=False):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.ENTITY,
        impl=impl,
        table=table,
        # "Entity beans moved from CMP 1.1 to CMP 2.0" (§3.4).
        persistence=Persistence.CMP,
        remote_interface=False,
        read_mostly=(
            ReadMostlyDescriptor(updater=name, refresh_mode=RefreshMode.PUSH)
            if read_mostly
            else None
        ),
    )


def _facade(name, impl, edge_from_level=None, cached_methods=()):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.STATELESS_SESSION,
        impl=impl,
        remote_interface=True,
        edge_from_level=edge_from_level,
        cached_methods=tuple(cached_methods),
    )


def _servlet(name, impl):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.SERVLET,
        impl=impl,
        remote_interface=False,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
    )


def build_application(level=None, catalog=None) -> ApplicationDescriptor:
    """The RUBiS application (Session Façade version).

    ``catalog`` (a :class:`~repro.apps.rubis.data.RubisCatalog`) sharpens
    the category-and-region cache's invalidation key: the seller's region
    is not part of an item update event, but the deployer knows the
    static user-to-region mapping and can declare it (§5: invalidating
    operations "should be possibly specified via deployment descriptors").
    ``level`` is ignored (the placement policy decides everything a
    level did); it remains only because the benchmark suite's
    micro-benchmarks still pass it positionally.
    """
    app = ApplicationDescriptor(name="rubis")

    for schema in rubis_schemas():
        app.add_schema(schema)

    # -- entity tier: "Read-only BMP versions of Item and User beans were
    #    introduced" (§4.3) -------------------------------------------------
    app.add(_entity("Region", entities.RegionBean, "regions"))
    app.add(_entity("Category", entities.CategoryBean, "categories"))
    app.add(_entity("User", entities.UserBean, "users", read_mostly=True))
    app.add(_entity("RubisItem", entities.RubisItemBean, "items", read_mostly=True))
    app.add(_entity("Bid", entities.BidBean, "bids"))
    app.add(_entity("Comment", entities.CommentBean, "comments"))

    # -- session façades ---------------------------------------------------------
    # ``cached_methods`` marks read-only business methods eligible for
    # level-6 transactional method caching; the write facades carry none.
    app.add(
        _facade(
            "SB_BrowseCategories",
            facades.BrowseCategoriesBean,
            edge_from_level=4,
            cached_methods=("get_all", "get_for_region"),
        )
    )
    app.add(
        _facade(
            "SB_BrowseRegions",
            facades.BrowseRegionsBean,
            edge_from_level=4,
            cached_methods=("get_all",),
        )
    )
    app.add(
        _facade(
            "SB_SearchItemsInCategory",
            facades.SearchItemsInCategoryBean,
            edge_from_level=4,
            cached_methods=("get",),
        )
    )
    app.add(
        _facade(
            "SB_SearchItemsInCategoryRegion",
            facades.SearchItemsInCategoryRegionBean,
            edge_from_level=4,
            cached_methods=("get",),
        )
    )
    app.add(
        _facade(
            "SB_ViewItem",
            facades.ViewItemBean,
            edge_from_level=3,
            cached_methods=("get",),
        )
    )
    app.add(
        _facade(
            "SB_ViewBidHistory",
            facades.ViewBidHistoryBean,
            edge_from_level=3,
            cached_methods=("get",),
        )
    )
    app.add(
        _facade(
            "SB_ViewUserInfo",
            facades.ViewUserInfoBean,
            edge_from_level=3,
            cached_methods=("get",),
        )
    )
    app.add(_facade("SB_PutBid", facades.PutBidBean, edge_from_level=4))
    app.add(_facade("SB_PutComment", facades.PutCommentBean, edge_from_level=4))
    app.add(_facade("SB_StoreBid", facades.StoreBidBean))
    app.add(_facade("SB_StoreComment", facades.StoreCommentBean))

    # -- queries & push-based edge caches ("caching of all queries involved
    #    in the processing of all requests in our browser and bidder
    #    sessions", §4.4) -----------------------------------------------------
    def cache(query_id, sql, invalidated_by=(), key_of_update=None):
        app.add_query_cache(
            QueryCacheDescriptor(
                query_id=query_id,
                sql=sql,
                invalidated_by=tuple(invalidated_by),
                refresh_mode=RefreshMode.PUSH,
                key_of_update=key_of_update,
            )
        )

    cache(Q_ALL_CATEGORIES, "SELECT * FROM categories")
    cache(Q_ALL_REGIONS, "SELECT * FROM regions")
    cache(
        Q_ITEMS_IN_CATEGORY,
        "SELECT id, name, initial_price, max_bid, nb_of_bids FROM items "
        "WHERE category = ?",
        invalidated_by=("items",),
        key_of_update=lambda event: (
            (event.state.get("category"),) if event.state else None
        ),
    )
    if catalog is not None:
        region_of_user = dict(catalog.region_of_user)

        def category_region_key(event):
            if not event.state:
                return None
            region = region_of_user.get(event.state.get("seller"))
            if region is None:
                return None
            return (event.state.get("category"), region)

    else:
        category_region_key = None  # region unknown: invalidate all entries
    cache(
        Q_ITEMS_IN_CATEGORY_REGION,
        "SELECT items.id, items.name, items.max_bid, items.nb_of_bids "
        "FROM items JOIN users u ON items.seller = u.id "
        "WHERE items.category = ? AND u.region_id = ?",
        invalidated_by=("items",),
        key_of_update=category_region_key,
    )
    cache(
        Q_BID_HISTORY,
        "SELECT bids.id, bids.bid, bids.date, u.nickname "
        "FROM bids JOIN users u ON bids.user_id = u.id WHERE bids.item_id = ?",
        invalidated_by=("bids",),
        key_of_update=lambda event: (
            (event.state.get("item_id"),) if event.state else None
        ),
    )
    cache(
        Q_USER_COMMENTS,
        "SELECT comments.id, comments.rating, comments.comment, u.nickname "
        "FROM comments JOIN users u ON comments.from_user = u.id "
        "WHERE comments.to_user = ?",
        invalidated_by=("comments",),
        key_of_update=lambda event: (
            (event.state.get("to_user"),) if event.state else None
        ),
    )

    # -- web tier ------------------------------------------------------------
    servlet_impls = {
        "Main": web.MainServlet,
        "Browse": web.BrowseServlet,
        "All Categories": web.AllCategoriesServlet,
        "All Regions": web.AllRegionsServlet,
        "Region": web.RegionServlet,
        "Category": web.CategoryServlet,
        "Category & Region": web.CategoryRegionServlet,
        "Item": web.ItemServlet,
        "Bids": web.BidsServlet,
        "User Info": web.UserInfoServlet,
        "Put Bid Auth": web.PutBidAuthServlet,
        "Put Bid Form": web.PutBidFormServlet,
        "Store Bid": web.StoreBidServlet,
        "Put Comment Auth": web.PutCommentAuthServlet,
        "Put Comment Form": web.PutCommentFormServlet,
        "Store Comment": web.StoreCommentServlet,
    }
    for page, impl in servlet_impls.items():
        component = f"servlet.{page}"
        app.add(_servlet(component, impl))
        app.map_page(page, component)

    app.validate()
    return app
