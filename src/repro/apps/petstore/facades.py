"""Pet Store session façades (stateless).

``Catalog`` is the paper's canonical façade (Figures 3-5): it wraps the
product domain model, serves reads from read-only replicas and query
caches when they are deployed locally, and *delegates to its central
counterpart* when a request "cannot be served locally by delegating to
the read-only beans" (§4.3) — one bulk RMI call.

``SignOnFacade`` / ``CustomerFacade`` / ``OrderFacade`` carry the buyer
path; they live only on the main server, co-located with the
transactional entities they wrap.
"""

from __future__ import annotations

import itertools

from ...middleware.ejb import BeanError, StatelessSessionBean

__all__ = ["CatalogBean", "SignOnFacadeBean", "CustomerFacadeBean", "OrderFacadeBean"]

Q_PRODUCTS_OF_CATEGORY = "petstore.products_of_category"
Q_ITEMS_OF_PRODUCT = "petstore.items_of_product"

_order_ids = itertools.count(100_000)


class CatalogBean(StatelessSessionBean):
    """Read façade over the product catalog."""

    def _delegate(self, ctx, method, *args):
        central = yield from ctx.lookup("Catalog@central")
        result = yield from central.call(ctx, method, *args)
        return result

    def get_category_page(self, ctx, category_id):
        """Category details plus its product list (aggregate query)."""
        server = ctx.server
        if not server.can_query_locally(Q_PRODUCTS_OF_CATEGORY):
            result = yield from self._delegate(ctx, "get_category_page", category_id)
            return result
        category_home = yield from ctx.lookup("Category")
        details = yield from category_home.entity(category_id).call(ctx, "get_details")
        products = yield from server.cached_query(
            ctx, Q_PRODUCTS_OF_CATEGORY, (category_id,)
        )
        return {"category": details, "products": products}

    def get_product_page(self, ctx, product_id):
        """Product details plus its item list (aggregate query)."""
        server = ctx.server
        if not server.can_query_locally(Q_ITEMS_OF_PRODUCT):
            result = yield from self._delegate(ctx, "get_product_page", product_id)
            return result
        product_home = yield from ctx.lookup("Product")
        details = yield from product_home.entity(product_id).call(ctx, "get_details")
        items = yield from server.cached_query(ctx, Q_ITEMS_OF_PRODUCT, (product_id,))
        return {"product": details, "items": items}

    def get_item_page(self, ctx, item_id):
        """Item details + availability: pure entity reads, replica-servable."""
        item_home = yield from ctx.lookup("Item")
        details = yield from item_home.entity(item_id).call(ctx, "get_details")
        inventory_home = yield from ctx.lookup("Inventory")
        quantity = yield from inventory_home.entity(item_id).call(ctx, "get_quantity")
        return {"item": details, "quantity": quantity}

    def get_item_details(self, ctx, item_id):
        """Lightweight item lookup used by the shopping cart."""
        item_home = yield from ctx.lookup("Item")
        details = yield from item_home.entity(item_id).call(ctx, "get_details")
        return details

    def search(self, ctx, keyword):
        """Keyword search: a customized query that is never cached (§4.4)."""
        server = ctx.server
        if not server.is_main:
            result = yield from self._delegate(ctx, "search", keyword)
            return result
        result = yield from server.db_execute(
            ctx,
            "SELECT id, name, list_price FROM item WHERE name LIKE ? "
            "OR description LIKE ?",
            (f"%{keyword}%", f"%{keyword}%"),
        )
        return result.rows  # shared read-only rows: the servlet only counts them


class SignOnFacadeBean(StatelessSessionBean):
    """Authentication against the SignOn entity (main server only)."""

    def authenticate(self, ctx, user_id, password):
        signon_home = yield from ctx.lookup("SignOn")
        try:
            yield from signon_home.find(ctx, "find_by_primary_key", user_id)
        except BeanError:  # no such user; a transport or database fault propagates
            return False
        ok = yield from signon_home.entity(user_id).call(ctx, "check_password", password)
        return bool(ok)


class CustomerFacadeBean(StatelessSessionBean):
    """Profile access over the Account entity (main server only)."""

    def get_profile(self, ctx, user_id):
        account_home = yield from ctx.lookup("Account")
        details = yield from account_home.entity(user_id).call(ctx, "get_details")
        return details


class OrderFacadeBean(StatelessSessionBean):
    """The write path: creates the order and updates inventory in one
    container-managed transaction whose commit triggers replica pushes.

    "the Commit page of the buyer session updates the Inventory bean"
    (§4.3) — with several cart items this writes one Inventory bean per
    item, the scalability hazard §4.5 removes.
    """

    def place_order(self, ctx, user_id, cart_items, ship_address):
        if not cart_items:
            raise ValueError("cannot place an empty order")
        order_home = yield from ctx.lookup("Order")
        lineitem_home = yield from ctx.lookup("LineItem")

        total = sum(entry["price"] * entry["quantity"] for entry in cart_items)
        order_id = next(_order_ids)
        yield from order_home.call(
            ctx,
            "create",
            {
                "id": order_id,
                "user_id": user_id,
                "order_date": ctx.env.now,
                "ship_address": ship_address,
                "total_price": round(total, 2),
                "status": "PLACED",
            },
        )
        for index, entry in enumerate(cart_items):
            yield from lineitem_home.call(
                ctx,
                "create",
                {
                    "id": order_id * 100 + index,
                    "order_id": order_id,
                    "item_id": entry["item_id"],
                    "quantity": entry["quantity"],
                    "unit_price": entry["price"],
                },
            )
            inventory = yield from ctx.server.lookup(ctx, "Inventory", for_update=True)
            yield from inventory.entity(entry["item_id"]).call(
                ctx, "decrement", entry["quantity"]
            )
        return {"order_id": order_id, "total": round(total, 2)}
