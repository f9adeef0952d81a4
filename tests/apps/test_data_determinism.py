"""Data generators are deterministic and parameterizable."""

from repro.apps.petstore import populate_petstore
from repro.apps.rubis import populate_rubis
from repro.simnet.rng import Streams


def _table_dump(database):
    return {
        name: sorted(tuple(sorted(row.items())) for row in table.scan())
        for name, table in database.tables.items()
    }


def test_petstore_same_seed_same_data():
    db_a, cat_a = populate_petstore(Streams(42))
    db_b, cat_b = populate_petstore(Streams(42))
    assert _table_dump(db_a) == _table_dump(db_b)
    assert cat_a.item_ids == cat_b.item_ids


def test_petstore_different_seed_different_prices():
    db_a, _ = populate_petstore(Streams(1))
    db_b, _ = populate_petstore(Streams(2))
    a = db_a.execute("SELECT list_price FROM item WHERE id = 1").scalar()
    b = db_b.execute("SELECT list_price FROM item WHERE id = 1").scalar()
    assert a != b


def test_petstore_custom_sizes():
    db, catalog = populate_petstore(
        Streams(3),
        {"artificial_categories": 1, "products": 12, "items": 24, "accounts": 10},
    )
    assert len(catalog.category_ids) == 6  # 5 original + 1
    assert len(catalog.product_ids) == 12
    assert len(catalog.item_ids) == 24
    assert len(catalog.user_ids) == 10


def test_rubis_same_seed_same_data():
    db_a, cat_a = populate_rubis(Streams(42))
    db_b, cat_b = populate_rubis(Streams(42))
    assert _table_dump(db_a) == _table_dump(db_b)
    assert cat_a.seller_of_item == cat_b.seller_of_item


def test_rubis_custom_sizes():
    db, catalog = populate_rubis(
        Streams(4),
        {"regions": 4, "categories": 5, "users": 40, "items": 50,
         "bids_per_item_max": 2, "comments_per_user_max": 1},
    )
    assert len(catalog.region_ids) == 4
    assert len(catalog.category_ids) == 5
    assert len(catalog.user_ids) == 40
    assert len(catalog.item_ids) == 50
    assert len(db.tables["bids"]) <= 100


def test_rubis_bid_ids_continue_after_seeding():
    db, catalog = populate_rubis(Streams(5))
    assert catalog.next_bid_id == len(db.tables["bids"]) + 1
    assert catalog.next_comment_id == len(db.tables["comments"]) + 1
