"""A dataset loaded from the process's image is the generator's output.

``load_dataset`` runs a data generator once per (generator, seed) in a
process and unpickles the kept image on every later call.  These tests
compare a restored dataset with a freshly generated one structure by
structure (heap order, index buckets, key order, counters), query
by query, and cell by cell.  Each test uses seeds no other test loads,
so the process-wide images other tests leave behind cannot decide
whether a call generates or restores.
"""

import pytest

from repro.apps import dataset
from repro.apps.dataset import load_dataset
from repro.apps.petstore import populate_petstore
from repro.apps.rubis import populate_rubis
from repro.experiments.calibration import default_workload
from repro.experiments.runner import APPS, RunSpec, run_configuration
from repro.simnet.rng import Streams

GENERATORS = {"petstore": populate_petstore, "rubis": populate_rubis}

# Beyond the apps' own cached queries: a key-order range, a LIKE, an
# aggregate and a full scan.
EXTRA_QUERIES = {
    "petstore": [
        ("SELECT id, name FROM item WHERE name LIKE ?", ("est-1%",)),
        ("SELECT id FROM item WHERE id BETWEEN ? AND ?", (20, 40)),
        ("SELECT COUNT(*) AS n FROM inventory WHERE quantity = ?", (0,)),
    ],
    "rubis": [
        ("SELECT id FROM users WHERE nickname LIKE ?", ("USER1%",)),
        ("SELECT id, max_bid FROM items WHERE id BETWEEN ? AND ?", (50, 90)),
        ("SELECT COUNT(*) AS n FROM bids WHERE item_id = ?", (7,)),
        ("SELECT id FROM items WHERE max_bid = ?", (100.0,)),
    ],
}


def _database_state(database):
    executor = database.executor
    return {
        "name": database.name,
        "counters": (
            database.statements_executed,
            database.rows_scanned_total,
            database._next_transaction_id,
            executor.index_scans,
            executor.full_scans,
            executor.range_scans,
            executor.join_index_lookups,
            executor.join_full_scans,
            executor.force_full_scans,
        ),
        "tables": [
            (
                name,
                table.schema.columns,
                table.schema.primary_key,
                table.schema.indexes,
                list(table._rows.items()),
                {column: list(index.items()) for column, index in table._indexes.items()},
                table.key_order,
            )
            for name, table in database.tables.items()
        ],
    }


def _answers(app, database, catalog):
    queries = APPS[app].build_application(catalog=catalog).queries
    battery = [
        (queries[query_id], params)
        for query_id, params_list in APPS[app].warm_queries(catalog).items()
        for params in params_list[:25]
    ] + EXTRA_QUERIES[app]
    answers = []
    for sql, params in battery:
        result = database.execute(sql, params)
        answers.append((result.rows, result.rows_scanned, result.used_index))
    return answers


@pytest.mark.parametrize("app", sorted(GENERATORS))
def test_a_restored_dataset_is_the_generators_output(app):
    populate, seed = GENERATORS[app], 26_001
    generated_db, generated_catalog = populate(Streams(seed))
    first = load_dataset(populate, Streams(seed))
    restored = load_dataset(populate, Streams(seed))
    assert restored[0] is not first[0]
    expected = _database_state(generated_db)
    for database, catalog in (first, restored):
        assert _database_state(database) == expected
        assert catalog == generated_catalog
    answers = _answers(app, generated_db, generated_catalog)
    assert _answers(app, restored[0], restored[1]) == answers
    # Executing the battery moved the same counters the same way.
    assert _database_state(restored[0]) == _database_state(generated_db)


def test_each_load_is_independent_of_the_image_and_of_other_loads():
    seed = 26_002
    # The generated copy, then three restored ones.
    loads = [load_dataset(populate_rubis, Streams(seed)) for _ in range(4)]
    before = _database_state(loads[-1][0])
    for database, catalog in loads[:-1]:
        database.execute("UPDATE items SET max_bid = ? WHERE id = ?", (999.0, 1))
        database.execute("UPDATE comments SET rating = ? WHERE id = ?", (5, 1))
        transaction = database.begin()
        database.execute(
            "INSERT INTO regions (id, name) VALUES (?, ?)", (99, "Region-99"), transaction
        )
        catalog.item_ids.append(-1)
        catalog.items_by_category[1].clear()
    fresh = load_dataset(populate_rubis, Streams(seed))
    for database, catalog in (loads[-1], fresh):
        assert _database_state(database) == before
        assert -1 not in catalog.item_ids
        assert catalog.items_by_category[1]
    assert fresh[0].begin().id == 1  # transaction ids restart with every copy


def test_the_generator_runs_once_per_seed_and_images_are_bounded():
    calls = []

    def populate(streams):
        calls.append(streams.master_seed)
        return populate_petstore(streams)

    for seed in (1, 2, 1, 2, 1):
        load_dataset(populate, Streams(seed))
    assert calls == [1, 2]
    # One image per (generator, seed), least recently used evicted first.
    capacity = dataset._IMAGES.capacity
    seeds = list(range(3, 3 + capacity))
    for seed in seeds:
        load_dataset(populate, Streams(seed))
    load_dataset(populate, Streams(1))
    assert calls == [1, 2, *seeds, 1]


@pytest.mark.parametrize("app", sorted(GENERATORS))
def test_a_cell_on_a_restored_dataset_equals_a_cell_on_a_generated_one(app):
    spec = RunSpec(
        seed=26_003,
        workload=default_workload(duration_ms=6_000.0, warmup_ms=1_000.0),
    )
    generated = run_configuration(app, 1, spec)
    restored = run_configuration(app, 1, spec)
    assert restored.total_requests > 0
    assert restored == generated
    assert _database_state(restored.system.db_server.database) == _database_state(
        generated.system.db_server.database
    )
