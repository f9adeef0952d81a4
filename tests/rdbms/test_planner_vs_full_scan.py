"""The access-path rule against forced full scans on a RUBiS-shaped database.

An index-favorable workload — category counts, primary-key ranges,
nickname lookups, bid-history joins and region counts — runs twice over
the auction schema: once with the executor free to take index paths,
once with ``force_full_scans`` pinning every scan to the heap.
``rows_scanned`` is what the simulated database server charges time
from, so its ratio is the simulated-cost speedup, and it is the same on
every machine.
"""

import random

import pytest

from repro.apps.rubis.schema import rubis_schemas
from repro.rdbms.engine import Database

SCALE = 0.1
QUERIES_PER_KIND = 10
SEED = 2003
CATEGORIES = 20
REGIONS = 10


def _build_database(rng):
    users = max(50, int(2000 * SCALE))
    items = max(100, int(5000 * SCALE))
    bids = max(200, int(10000 * SCALE))
    db = Database("rubis-planner")
    for schema in rubis_schemas():
        db.create_table(schema)
    db.load("regions", ({"id": i, "name": f"region-{i}"} for i in range(REGIONS)))
    db.load("categories", ({"id": i, "name": f"category-{i}"} for i in range(CATEGORIES)))
    db.load(
        "users",
        (
            {
                "id": i,
                "nickname": f"user{i:05d}",
                "password": "pw",
                "email": f"u{i}@example.com",
                "rating": rng.randint(0, 50),
                "region_id": rng.randrange(REGIONS),
            }
            for i in range(users)
        ),
    )
    db.load(
        "items",
        (
            {
                "id": i,
                "name": f"item {i}",
                "description": "x" * 20,
                "initial_price": round(rng.uniform(1.0, 500.0), 2),
                "quantity": 1,
                "nb_of_bids": 0,
                "max_bid": round(rng.uniform(1.0, 800.0), 2),
                "end_date": float(rng.randrange(100_000)),
                "seller": rng.randrange(users),
                "category": rng.randrange(CATEGORIES),
            }
            for i in range(items)
        ),
    )
    db.load(
        "bids",
        (
            {
                "id": i,
                "user_id": rng.randrange(users),
                "item_id": rng.randrange(items),
                "qty": 1,
                "bid": round(rng.uniform(1.0, 800.0), 2),
                "max_bid": round(rng.uniform(1.0, 900.0), 2),
                "date": float(i),
            }
            for i in range(bids)
        ),
    )
    return db


def _workload(db, rng):
    """[(kind, sql, params), ...], the five kinds interleaved."""
    n_users = len(db.table("users"))
    n_items = len(db.table("items"))
    workload = []
    for _ in range(QUERIES_PER_KIND):
        workload.append((
            "category_count",
            "SELECT COUNT(*) AS n FROM items WHERE category = ?",
            (rng.randrange(CATEGORIES),),
        ))
        lo = rng.randrange(max(1, n_items - 60))
        workload.append((
            "item_id_range",
            "SELECT id, name, max_bid FROM items WHERE id BETWEEN ? AND ?",
            (lo, lo + 50),
        ))
        workload.append((
            "nickname_lookup",
            "SELECT id, nickname FROM users WHERE nickname = ?",
            (f"user{rng.randrange(n_users):05d}",),
        ))
        workload.append((
            "bid_history_join",
            "SELECT bids.id, bids.bid, u.nickname FROM bids "
            "JOIN users u ON bids.user_id = u.id WHERE bids.item_id = ?",
            (rng.randrange(n_items),),
        ))
        workload.append((
            "region_members",
            "SELECT COUNT(*) AS n FROM users WHERE region_id = ?",
            (rng.randrange(REGIONS),),
        ))
    return workload


def _run_pass(db, workload, force_full):
    """Every query's rows, in order, and ``rows_scanned`` summed per kind."""
    db.executor.force_full_scans = force_full
    try:
        rows, scanned = [], {}
        for kind, sql, params in workload:
            result = db.execute(sql, params)
            rows.append([sorted(row.items()) for row in result.rows])
            scanned[kind] = scanned.get(kind, 0) + result.rows_scanned
    finally:
        db.executor.force_full_scans = False
    return rows, scanned


@pytest.fixture(scope="module")
def database_and_workload():
    db = _build_database(random.Random(SEED))
    return db, _workload(db, random.Random(SEED + 1))


def test_every_kind_plans_an_index_backed_access_path(database_and_workload):
    db, workload = database_and_workload
    full_scans = db.executor.full_scans
    kinds = set()
    for kind, sql, params in workload:
        kinds.add(kind)
        assert db.execute(sql, params).used_index is not None, kind
    assert len(kinds) == 5
    assert db.executor.full_scans == full_scans


# The range text the benchmark suite's range micro runs.
ITEM_RANGE = "SELECT id, name, max_bid FROM items WHERE id BETWEEN ? AND ?"


@pytest.mark.parametrize("low, high", [(0, 0), (10, 60), (480, 520), (600, 700)])
def test_item_id_range_keeps_its_index(database_and_workload, low, high):
    db = database_and_workload[0]
    ranges = db.executor.range_scans
    result = db.execute(ITEM_RANGE, (low, high))
    assert result.used_index == "items.id"
    assert db.executor.range_scans == ranges + 1
    assert result.rows_scanned == max(1, len(result.rows))
    assert [row["id"] for row in result.rows] == list(range(low, min(high, 499) + 1))
    db.executor.force_full_scans = True
    try:
        forced = db.execute(ITEM_RANGE, (low, high))
    finally:
        db.executor.force_full_scans = False
    assert forced.used_index is None
    assert result.rows == forced.rows


def test_planned_and_full_scan_passes_agree_and_the_planner_scans_less(
    database_and_workload,
):
    db, workload = database_and_workload
    planned_rows, planned = _run_pass(db, workload, force_full=False)
    forced_rows, forced = _run_pass(db, workload, force_full=True)
    assert planned_rows == forced_rows
    assert planned.keys() == forced.keys()
    for kind in planned:
        assert planned[kind] <= forced[kind], kind
    assert sum(forced.values()) >= 2 * sum(planned.values())
