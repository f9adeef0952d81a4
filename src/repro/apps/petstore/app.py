"""Assembly of the Java Pet Store application descriptor.

``build_application()`` returns the application with every extended
descriptor declared; :func:`repro.core.planner.plan_deployment` activates
them per placement policy.  The catalog servlets are V2 (one façade call
per page) with V1 (direct JDBC) as their central implementation, so a
policy that keeps the web tier on the main server — the centralized
baseline — runs the original servlets.
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
from . import entities, facades, sessions, web
from .facades import Q_ITEMS_OF_PRODUCT, Q_PRODUCTS_OF_CATEGORY
from .schema import petstore_schemas

__all__ = ["build_application", "BROWSER_PAGES", "BUYER_PAGES", "ALL_PAGES"]

BROWSER_PAGES = ["Main", "Category", "Product", "Item", "Search"]
BUYER_PAGES = [
    "Main",
    "Signin",
    "Verify Signin",
    "Shopping Cart",
    "Checkout",
    "Place Order",
    "Billing",
    "Commit Order",
    "Signout",
]
ALL_PAGES = BROWSER_PAGES + BUYER_PAGES[1:]


def _entity(name, impl, table, read_mostly=False):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.ENTITY,
        impl=impl,
        table=table,
        # Pet Store 1.1.2: "All entity beans ... are implemented using
        # Bean Managed Persistence" (§2.2).
        persistence=Persistence.BMP,
        remote_interface=False,  # entities are local-only (design rule R1)
        read_mostly=(
            ReadMostlyDescriptor(refresh_mode=RefreshMode.PUSH) if read_mostly else None
        ),
    )


def _stateless(name, impl, edge_from_level=None, cached_methods=()):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.STATELESS_SESSION,
        impl=impl,
        remote_interface=True,
        edge_from_level=edge_from_level,
        cached_methods=tuple(cached_methods),
    )


def _stateful(name, impl):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.STATEFUL_SESSION,
        impl=impl,
        remote_interface=False,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
    )


def _servlet(name, impl, central_impl=None):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.SERVLET,
        impl=impl,
        remote_interface=False,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
        central_impl=central_impl,
    )


def build_application(catalog=None) -> ApplicationDescriptor:
    """The Pet Store application.

    ``catalog`` is accepted for interface parity with RUBiS; Pet Store's
    cache keys derive fully from update events.
    """
    app = ApplicationDescriptor(name="petstore")

    for schema in petstore_schemas():
        app.add_schema(schema)

    # -- entity tier ---------------------------------------------------------
    app.add(_entity("Category", entities.CategoryBean, "category", read_mostly=True))
    app.add(_entity("Product", entities.ProductBean, "product", read_mostly=True))
    app.add(_entity("Item", entities.ItemBean, "item", read_mostly=True))
    app.add(_entity("Inventory", entities.InventoryBean, "inventory", read_mostly=True))
    app.add(_entity("Account", entities.AccountBean, "account"))
    app.add(_entity("SignOn", entities.SignOnBean, "signon"))
    app.add(_entity("Order", entities.OrderBean, "orders"))
    app.add(_entity("LineItem", entities.LineItemBean, "lineitem"))

    # -- session tier -----------------------------------------------------------
    # Level-6 method caching covers the read-only catalog pages; keyword
    # ``search`` stays uncached (unbounded key space, low repeat rate).
    app.add(
        _stateless(
            "Catalog",
            facades.CatalogBean,
            edge_from_level=3,
            cached_methods=(
                "get_category_page",
                "get_item_details",
                "get_item_page",
                "get_product_page",
            ),
        )
    )
    app.add(_stateless("SignOnFacade", facades.SignOnFacadeBean))
    app.add(_stateless("CustomerFacade", facades.CustomerFacadeBean))
    app.add(_stateless("OrderFacade", facades.OrderFacadeBean))
    app.add(_stateful("ShoppingCart", sessions.ShoppingCartBean))
    app.add(_stateful("CustomerSession", sessions.CustomerSessionBean))
    app.add(
        _stateful("ShoppingClientController", sessions.ShoppingClientControllerBean)
    )

    # -- queries and their edge caches (§4.4: "the set of products for a
    #    given category, and the set of items belonging to a given product") --
    app.add_query_cache(
        QueryCacheDescriptor(
            query_id=Q_PRODUCTS_OF_CATEGORY,
            sql="SELECT id, name, description FROM product WHERE category_id = ?",
            invalidated_by=("product",),
            # Pet Store: "For simplicity, we implemented the pull-based
            # update mechanism for caching query results" (§4.4).
            refresh_mode=RefreshMode.PULL,
            key_of_update=lambda event: (
                (event.state.get("category_id"),) if event.state else None
            ),
        )
    )
    app.add_query_cache(
        QueryCacheDescriptor(
            query_id=Q_ITEMS_OF_PRODUCT,
            sql="SELECT id, name, list_price FROM item WHERE product_id = ?",
            invalidated_by=("item",),
            refresh_mode=RefreshMode.PULL,
            key_of_update=lambda event: (
                (event.state.get("product_id"),) if event.state else None
            ),
        )
    )

    # -- web tier ------------------------------------------------------------
    servlet_impls = {
        "Main": web.MainServlet,
        "Signin": web.SigninServlet,
        "Verify Signin": web.VerifySigninServlet,
        "Shopping Cart": web.ShoppingCartServlet,
        "Checkout": web.CheckoutServlet,
        "Place Order": web.PlaceOrderServlet,
        "Billing": web.BillingServlet,
        "Commit Order": web.CommitOrderServlet,
        "Signout": web.SignoutServlet,
        "Category": web.CategoryServletV2,
        "Product": web.ProductServletV2,
        "Item": web.ItemServletV2,
        "Search": web.SearchServletV2,
    }
    direct_jdbc = {
        "Category": web.CategoryServletV1,
        "Product": web.ProductServletV1,
        "Item": web.ItemServletV1,
        "Search": web.SearchServletV1,
    }
    for page, impl in servlet_impls.items():
        component = f"servlet.{page}"
        app.add(_servlet(component, impl, direct_jdbc.get(page)))
        app.map_page(page, component)

    app.validate()
    return app
