"""Pet Store stateful session beans.

``ShoppingCart`` and ``ShoppingClientController`` are the paper's two
stateful session beans (Table 1); ``CustomerSession`` holds the
logged-in customer's profile ("create a Customer session bean for the
customer that logged in", §4.2).  All three are per-client conversational
state and therefore edge-deployable from level 2.
"""

from __future__ import annotations

from ...middleware.ejb import StatefulSessionBean

__all__ = ["ShoppingCartBean", "CustomerSessionBean", "ShoppingClientControllerBean"]


class ShoppingCartBean(StatefulSessionBean):
    """Maintains the list of items to be bought by the customer."""

    def ejb_create(self, ctx, *args):
        self.state["items"] = {}

    def add_item(self, ctx, item_details, quantity):
        if quantity <= 0:
            raise ValueError("quantity must be positive")
        items = self.state["items"]
        item_id = item_details["id"]
        entry = items.get(item_id)
        if entry is None:
            items[item_id] = {
                "item_id": item_id,
                "name": item_details["name"],
                "price": item_details["list_price"],
                "quantity": quantity,
            }
        else:
            entry["quantity"] += quantity
        return len(items)

    def get_items(self, ctx):
        return [dict(entry) for entry in self.state["items"].values()]

    def total(self, ctx):
        return round(
            sum(e["price"] * e["quantity"] for e in self.state["items"].values()), 2
        )

    def clear(self, ctx):
        self.state["items"] = {}


class CustomerSessionBean(StatefulSessionBean):
    """The logged-in customer's cached profile (edge-side)."""

    def ejb_create(self, ctx, *args):
        self.state["profile"] = None

    def set_profile(self, ctx, profile):
        self.state["profile"] = dict(profile)

    def get_profile(self, ctx):
        profile = self.state["profile"]
        if profile is None:
            raise ValueError("no customer is signed in for this session")
        return dict(profile)


class ShoppingClientControllerBean(StatefulSessionBean):
    """The EJB-tier half of the MVC Controller (§2.2).

    Translates user actions into calls on the model: catalog reads for
    cart additions (replica-servable from level 3), façade calls across
    the WAN only where shared transactional state is involved.
    """

    def sign_in(self, ctx, user_id, password):
        """Two remote calls, as the paper notes for Verify Signin (§4.2)."""
        signon = yield from ctx.lookup("SignOnFacade")
        ok = yield from signon.call(ctx, "authenticate", user_id, password)
        if not ok:
            return False
        customer_facade = yield from ctx.lookup("CustomerFacade")
        profile = yield from customer_facade.call(ctx, "get_profile", user_id)
        customer = yield from ctx.lookup("CustomerSession")
        yield from customer.call(ctx, "set_profile", profile)
        return True

    def sign_out(self, ctx):
        customer = yield from ctx.lookup("CustomerSession")
        yield from customer.call(ctx, "remove")
        cart = yield from ctx.lookup("ShoppingCart")
        yield from cart.call(ctx, "remove")
        return True

    def add_to_cart(self, ctx, item_id, quantity=1):
        """Item details come from the catalog — one RMI at level 2,
        local replica reads from level 3 ("the buyer's Shopping Cart page
        can be served locally due to the newly introduced read-only
        beans", §4.3)."""
        catalog = yield from ctx.lookup("Catalog")
        details = yield from catalog.call(ctx, "get_item_details", item_id)
        cart = yield from ctx.lookup("ShoppingCart")
        count = yield from cart.call(ctx, "add_item", details, quantity)
        return count

    def get_cart(self, ctx):
        cart = yield from ctx.lookup("ShoppingCart")
        items = yield from cart.call(ctx, "get_items")
        total = yield from cart.call(ctx, "total")
        return {"items": items, "total": total}

    def get_billing_info(self, ctx):
        customer = yield from ctx.lookup("CustomerSession")
        profile = yield from customer.call(ctx, "get_profile")
        return profile

    def commit_order(self, ctx):
        """One bulk remote call to the order façade; the write transaction
        (and any blocking replica push) happens on the main server."""
        customer = yield from ctx.lookup("CustomerSession")
        profile = yield from customer.call(ctx, "get_profile")
        cart = yield from ctx.lookup("ShoppingCart")
        items = yield from cart.call(ctx, "get_items")
        order_facade = yield from ctx.lookup("OrderFacade")
        receipt = yield from order_facade.call(
            ctx,
            "place_order",
            profile["user_id"],
            items,
            f"{profile['address']}, {profile['city']}",
        )
        yield from cart.call(ctx, "clear")
        return receipt
