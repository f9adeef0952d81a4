"""RUBiS database schema (the eBay-like auction site).

Follows the RUBiS relational schema: regions, categories, users, items,
bids, comments.  ``items`` carries the denormalized ``nb_of_bids`` /
``max_bid`` columns the real RUBiS maintains — which is precisely why
storing a bid *writes the Item entity* and triggers replica pushes in
§4.3.
"""

from __future__ import annotations

from typing import List

from ...rdbms.schema import Column, TableSchema
from ...rdbms.types import FLOAT, INTEGER, TEXT

__all__ = ["rubis_schemas"]


def rubis_schemas() -> List[TableSchema]:
    return [
        TableSchema(
            "regions",
            [Column("id", INTEGER), Column("name", TEXT)],
            primary_key="id",
        ),
        TableSchema(
            "categories",
            [Column("id", INTEGER), Column("name", TEXT)],
            primary_key="id",
        ),
        TableSchema(
            "users",
            [
                Column("id", INTEGER),
                Column("nickname", TEXT),
                Column("password", TEXT),
                Column("email", TEXT),
                Column("rating", INTEGER, default=0),
                Column("balance", FLOAT, default=0.0),
                Column("region_id", INTEGER),
                Column("creation_date", FLOAT, default=0.0),
            ],
            primary_key="id",
            indexes=["region_id", "nickname"],
        ),
        TableSchema(
            "items",
            [
                Column("id", INTEGER),
                Column("name", TEXT),
                Column("description", TEXT),
                Column("initial_price", FLOAT),
                Column("reserve_price", FLOAT, nullable=True),
                Column("buy_now", FLOAT, nullable=True),
                Column("quantity", INTEGER, default=1),
                Column("nb_of_bids", INTEGER, default=0),
                Column("max_bid", FLOAT, default=0.0),
                Column("start_date", FLOAT, default=0.0),
                Column("end_date", FLOAT, default=0.0),
                Column("seller", INTEGER),
                Column("category", INTEGER),
            ],
            primary_key="id",
            indexes=["category", "seller"],
        ),
        TableSchema(
            "bids",
            [
                Column("id", INTEGER),
                Column("user_id", INTEGER),
                Column("item_id", INTEGER),
                Column("qty", INTEGER, default=1),
                Column("bid", FLOAT),
                Column("max_bid", FLOAT),
                Column("date", FLOAT, default=0.0),
            ],
            primary_key="id",
            indexes=["item_id", "user_id"],
        ),
        TableSchema(
            "comments",
            [
                Column("id", INTEGER),
                Column("from_user", INTEGER),
                Column("to_user", INTEGER),
                Column("item_id", INTEGER),
                Column("rating", INTEGER),
                Column("date", FLOAT, default=0.0),
                Column("comment", TEXT),
            ],
            primary_key="id",
            indexes=["to_user", "item_id"],
        ),
    ]
