"""RUBiS entity beans (CMP 2.0, per the paper's modifications).

"Read-only BMP versions of Item and User beans were introduced" in §4.3
— so Item and User carry read-mostly descriptors; Region, Category, Bid
and Comment remain plain entities (list pages are served by query
caches instead).
"""

from __future__ import annotations

from ...middleware.ejb import EntityBean
from ...middleware.entity import FinderSpec

__all__ = [
    "RegionBean",
    "CategoryBean",
    "UserBean",
    "RubisItemBean",
    "BidBean",
    "CommentBean",
]


class RegionBean(EntityBean):
    FINDERS = {"find_all": FinderSpec("SELECT * FROM regions")}


class CategoryBean(EntityBean):
    FINDERS = {"find_all": FinderSpec("SELECT * FROM categories")}


class UserBean(EntityBean):
    """A registered user; rating changes when comments are stored."""

    FINDERS = {
        "find_by_nickname": FinderSpec("SELECT * FROM users WHERE nickname = ?"),
        "find_by_region": FinderSpec("SELECT * FROM users WHERE region_id = ?"),
    }

    def get_details(self, ctx):
        # Public info only — password stays server-side.
        public = dict(self.state)
        public.pop("password", None)
        return public

    def check_password(self, ctx, password):
        return self.state["password"] == password

    def adjust_rating(self, ctx, delta):
        self.set_field("rating", self.state["rating"] + delta)
        return self.state["rating"]


class RubisItemBean(EntityBean):
    """An auction item with denormalized bid summary columns."""

    FINDERS = {
        "find_by_category": FinderSpec("SELECT * FROM items WHERE category = ?"),
        "find_by_seller": FinderSpec("SELECT * FROM items WHERE seller = ?"),
    }

    def get_details(self, ctx):
        return dict(self.state)

    def get_bid_summary(self, ctx):
        return {
            "nb_of_bids": self.state["nb_of_bids"],
            "max_bid": self.state["max_bid"],
            "current_price": max(self.state["max_bid"], self.state["initial_price"]),
        }

    def register_bid_increment(self, ctx, increment):
        """Bid ``increment`` above the current price; returns the new bid."""
        if increment <= 0:
            raise ValueError("bid increment must be positive")
        current = max(self.state["max_bid"], self.state["initial_price"])
        amount = round(current + increment, 2)
        self.set_field("nb_of_bids", self.state["nb_of_bids"] + 1)
        self.set_field("max_bid", amount)
        return amount


class BidBean(EntityBean):
    FINDERS = {
        "find_by_item": FinderSpec("SELECT * FROM bids WHERE item_id = ?"),
        "find_by_user": FinderSpec("SELECT * FROM bids WHERE user_id = ?"),
    }


class CommentBean(EntityBean):
    FINDERS = {
        "find_by_to_user": FinderSpec("SELECT * FROM comments WHERE to_user = ?"),
    }
