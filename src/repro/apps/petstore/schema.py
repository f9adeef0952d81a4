"""Java Pet Store database schema.

Mirrors the Pet Store 1.1.2 product database (category / product / item /
inventory) plus the account, signon and order tables used by the buyer
path (Table 1, Figure 1).
"""

from __future__ import annotations

from typing import List

from ...rdbms.schema import Column, TableSchema
from ...rdbms.types import FLOAT, INTEGER, TEXT

__all__ = ["petstore_schemas"]


def petstore_schemas() -> List[TableSchema]:
    """All Pet Store table schemas, in creation order."""
    return [
        TableSchema(
            "category",
            [
                Column("id", INTEGER),
                Column("name", TEXT),
                Column("description", TEXT),
            ],
            primary_key="id",
        ),
        TableSchema(
            "product",
            [
                Column("id", INTEGER),
                Column("category_id", INTEGER),
                Column("name", TEXT),
                Column("description", TEXT),
            ],
            primary_key="id",
            indexes=["category_id"],
        ),
        TableSchema(
            "item",
            [
                Column("id", INTEGER),
                Column("product_id", INTEGER),
                Column("name", TEXT),
                Column("list_price", FLOAT),
                Column("unit_cost", FLOAT),
                Column("description", TEXT),
            ],
            primary_key="id",
            indexes=["product_id"],
        ),
        TableSchema(
            "inventory",
            [
                Column("item_id", INTEGER),
                Column("quantity", INTEGER),
            ],
            primary_key="item_id",
        ),
        TableSchema(
            "account",
            [
                Column("user_id", TEXT),
                Column("email", TEXT),
                Column("first_name", TEXT),
                Column("last_name", TEXT),
                Column("address", TEXT),
                Column("city", TEXT),
                Column("state", TEXT),
                Column("zip", TEXT),
                Column("country", TEXT),
                Column("phone", TEXT),
            ],
            primary_key="user_id",
        ),
        TableSchema(
            "signon",
            [
                Column("user_id", TEXT),
                Column("password", TEXT),
            ],
            primary_key="user_id",
        ),
        TableSchema(
            "orders",
            [
                Column("id", INTEGER),
                Column("user_id", TEXT),
                Column("order_date", FLOAT),
                Column("ship_address", TEXT),
                Column("total_price", FLOAT),
                Column("status", TEXT),
            ],
            primary_key="id",
            indexes=["user_id"],
        ),
        TableSchema(
            "lineitem",
            [
                Column("id", INTEGER),
                Column("order_id", INTEGER),
                Column("item_id", INTEGER),
                Column("quantity", INTEGER),
                Column("unit_price", FLOAT),
            ],
            primary_key="id",
            indexes=["order_id"],
        ),
    ]
