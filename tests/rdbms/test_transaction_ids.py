"""Transaction ids are per-database, not process-global.

The original counter was a module-level ``itertools.count`` that no
reset path ever touched, so transaction ids depended on how many cells
had already run in the worker process — harmless for the golden tables
but a landmine for any artifact that ever prints an id, and a real
divergence between ``--jobs 1`` and ``--jobs N`` (workers recycle
processes at different cell boundaries).  Each ``Database`` now owns its
own counter — and each ``DatabaseServer`` numbers its own sessions, which
came from a module-level counter of the same kind.
"""

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.server import DatabaseServer
from repro.rdbms.transactions import Transaction
from repro.rdbms.types import INTEGER


def _db(name="txdb"):
    database = Database(name)
    database.create_table(
        TableSchema("t", [Column("id", INTEGER)], primary_key="id")
    )
    return database


def test_fresh_database_starts_at_one():
    assert _db().begin().id == 1


def test_ids_are_sequential_within_a_database():
    database = _db()
    ids = [database.begin(read_only=True).id for _ in range(3)]
    assert ids == [1, 2, 3]


def test_databases_do_not_share_a_counter():
    first = _db("a")
    for _ in range(5):
        first.begin()
    second = _db("b")
    assert second.begin().id == 1  # the old global counter would say 6


def test_rerunning_the_same_work_yields_the_same_ids():
    def run_once():
        database = _db()
        ids = []
        for value in range(1, 4):
            txn = database.begin()
            ids.append(txn.id)
            database.execute(
                "INSERT INTO t (id) VALUES (?)", (value,), transaction=txn
            )
            txn.commit()
        return ids

    assert run_once() == run_once()


def test_explicit_id_overrides_the_counter():
    txn = Transaction({}, id=99)
    assert txn.id == 99


def test_two_servers_both_number_their_sessions_from_one(env, network):
    first = DatabaseServer(env, network.node("c"), _db("a"))
    assert [first.open_session().id for _ in range(3)] == [1, 2, 3]
    second = DatabaseServer(env, network.node("c"), _db("b"))
    assert second.open_session().id == 1  # the old global counter would say 4
    assert first.open_session().id == 4


def test_a_database_rebuilt_from_an_image_keeps_its_counters():
    database = _db()
    for key in range(5):
        database.execute("INSERT INTO t (id) VALUES (?)", (key,))
    database.execute("SELECT id FROM t WHERE id = ?", (3,))
    database.execute("SELECT id FROM t WHERE id BETWEEN ? AND ?", (1, 9))
    database.begin()
    database.executor.force_full_scans = True
    copy = Database.from_image(database.image())
    assert copy.name == database.name
    assert copy.tables["t"].schema is database.tables["t"].schema
    assert copy.statements_executed == database.statements_executed == 7
    assert copy.rows_scanned_total == database.rows_scanned_total
    for counter in ("index_scans", "full_scans", "range_scans",
                    "join_index_lookups", "join_full_scans", "force_full_scans"):
        assert getattr(copy.executor, counter) == getattr(database.executor, counter)
    assert copy.tables["t"].key_order == database.tables["t"].key_order == list(range(5))
    assert copy.begin().id == database.begin().id == 2
    assert copy.execute("SELECT id FROM t").rows == database.execute("SELECT id FROM t").rows
