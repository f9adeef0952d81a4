"""Pet Store entity beans (Table 1's entity tier).

Category/Product/Item are the read-write beans the paper *introduced* in
§4.3 ("previously handled by the Catalog bean, which accessed the product
database directly via JDBC"); Inventory, SignOn, Order and Account exist
from the start.  Category, Product, Item and Inventory acquire read-only
replicas at level 3 — SignOn/Account/Order stay transactional-only, which
is why Verify Signin never becomes a local page.
"""

from __future__ import annotations

from ...middleware.ejb import EntityBean
from ...middleware.entity import FinderSpec

__all__ = [
    "CategoryBean",
    "ProductBean",
    "ItemBean",
    "InventoryBean",
    "AccountBean",
    "SignOnBean",
    "OrderBean",
    "LineItemBean",
]


class CategoryBean(EntityBean):
    """A product category (read-mostly)."""

    FINDERS = {
        "find_all": FinderSpec("SELECT * FROM category"),
    }

    def get_details(self, ctx):
        return dict(self.state)


class ProductBean(EntityBean):
    """A product within a category (read-mostly)."""

    FINDERS = {
        "find_by_category": FinderSpec("SELECT * FROM product WHERE category_id = ?"),
    }

    def get_details(self, ctx):
        return dict(self.state)


class ItemBean(EntityBean):
    """A sellable item: the bean behind the hottest browser page."""

    FINDERS = {
        "find_by_product": FinderSpec("SELECT * FROM item WHERE product_id = ?"),
    }

    def get_details(self, ctx):
        return dict(self.state)


class InventoryBean(EntityBean):
    """Availability per item; written by every committed order (§4.3)."""

    def get_quantity(self, ctx):
        return self.state["quantity"]

    def decrement(self, ctx, amount):
        """Reduce stock; refuses to go negative."""
        if amount <= 0:
            raise ValueError(f"decrement amount must be positive, got {amount!r}")
        current = self.state["quantity"]
        if current < amount:
            raise ValueError(
                f"insufficient inventory for item {self.primary_key!r}: "
                f"{current} < {amount}"
            )
        self.set_field("quantity", current - amount)
        return current - amount


class AccountBean(EntityBean):
    """Customer account: billing and shipping information."""

    def get_details(self, ctx):
        return dict(self.state)


class SignOnBean(EntityBean):
    """Keeps userid/password information (Table 1)."""

    def check_password(self, ctx, password):
        return self.state["password"] == password


class OrderBean(EntityBean):
    """A committed order."""

    FINDERS = {
        "find_by_user": FinderSpec("SELECT * FROM orders WHERE user_id = ?"),
    }


class LineItemBean(EntityBean):
    """One item position within an order."""

    FINDERS = {
        "find_by_order": FinderSpec("SELECT * FROM lineitem WHERE order_id = ?"),
    }
