"""Unit tests for transactions, undo, and the simulated lock manager."""

import pytest

from repro.rdbms.engine import Database, DatabaseError
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.transactions import LockManager, TransactionError
from repro.rdbms.types import INTEGER, TEXT


@pytest.fixture
def db():
    database = Database("txtest")
    database.create_table(
        TableSchema(
            "accounts",
            [Column("id", INTEGER), Column("owner", TEXT), Column("balance", INTEGER)],
            primary_key="id",
        )
    )
    for i in range(3):
        database.execute(
            "INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)",
            (i, f"owner{i}", 100),
        )
    return database


# ---------------------------------------------------------------------------
# Undo-log transactions
# ---------------------------------------------------------------------------


def test_rollback_reverts_update(db):
    tx = db.begin()
    db.execute("UPDATE accounts SET balance = 0 WHERE id = 1", transaction=tx)
    tx.rollback()
    assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 100


def test_rollback_reverts_insert(db):
    tx = db.begin()
    db.execute(
        "INSERT INTO accounts (id, owner, balance) VALUES (9, 'new', 1)", transaction=tx
    )
    tx.rollback()
    assert db.execute("SELECT COUNT(*) AS n FROM accounts WHERE id = 9").scalar() == 0


def test_rollback_reverts_in_reverse_order(db):
    tx = db.begin()
    db.execute("UPDATE accounts SET balance = 1 WHERE id = 0", transaction=tx)
    db.execute("UPDATE accounts SET balance = 2 WHERE id = 0", transaction=tx)
    db.execute(
        "INSERT INTO accounts (id, owner, balance) VALUES (9, 'late', 3)", transaction=tx
    )
    db.execute("UPDATE accounts SET balance = 4 WHERE id = 9", transaction=tx)
    tx.rollback()
    assert db.execute("SELECT balance FROM accounts WHERE id = 0").scalar() == 100
    assert db.execute("SELECT COUNT(*) AS n FROM accounts WHERE id = 9").scalar() == 0


def test_commit_makes_changes_durable(db):
    tx = db.begin()
    db.execute("UPDATE accounts SET balance = 42 WHERE id = 1", transaction=tx)
    tx.commit()
    assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 42


def test_double_commit_rejected(db):
    tx = db.begin()
    tx.commit()
    with pytest.raises(TransactionError):
        tx.commit()


def test_rollback_after_commit_rejected(db):
    tx = db.begin()
    tx.commit()
    with pytest.raises(TransactionError):
        tx.rollback()


def test_read_only_transaction_rejects_writes(db):
    tx = db.begin(read_only=True)
    with pytest.raises(DatabaseError):
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1", transaction=tx)


# ---------------------------------------------------------------------------
# Lock manager (simulated-time blocking)
# ---------------------------------------------------------------------------


def test_lock_acquire_uncontended_is_instant(env, db):
    locks = LockManager(env)
    tx = db.begin()

    def proc():
        yield from locks.acquire(tx, "accounts", 1)
        return env.now

    process = env.process(proc())
    env.run()
    assert process.value == 0.0
    assert locks.holder("accounts", 1) == tx.id


def test_lock_is_reentrant(env, db):
    locks = LockManager(env)
    tx = db.begin()

    def proc():
        yield from locks.acquire(tx, "accounts", 1)
        yield from locks.acquire(tx, "accounts", 1)
        return True

    process = env.process(proc())
    env.run()
    assert process.value is True


def test_conflicting_lock_blocks_until_release(env, db):
    locks = LockManager(env)
    tx_a, tx_b = db.begin(), db.begin()
    log = []

    def holder(env):
        yield from locks.acquire(tx_a, "accounts", 1)
        yield env.timeout(50.0)
        locks.release_all(tx_a)

    def waiter(env):
        yield env.timeout(1.0)
        yield from locks.acquire(tx_b, "accounts", 1)
        log.append(env.now)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert log == [50.0]
    assert locks.waits == 1


def test_disjoint_keys_do_not_conflict(env, db):
    locks = LockManager(env)
    tx_a, tx_b = db.begin(), db.begin()
    log = []

    def proc(tx, key):
        yield from locks.acquire(tx, "accounts", key)
        log.append((env.now, key))

    env.process(proc(tx_a, 1))
    env.process(proc(tx_b, 2))
    env.run()
    assert log == [(0.0, 1), (0.0, 2)]


def test_lock_wait_timeout(env, db):
    locks = LockManager(env, timeout_ms=10.0)
    tx_a, tx_b = db.begin(), db.begin()
    outcome = {}

    def holder(env):
        yield from locks.acquire(tx_a, "accounts", 1)
        yield env.timeout(1000.0)  # never releases in time

    def waiter(env):
        try:
            yield from locks.acquire(tx_b, "accounts", 1)
        except TransactionError:
            outcome["timed_out_at"] = env.now

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert outcome["timed_out_at"] == pytest.approx(10.0)
    assert locks.timeouts == 1


def test_release_wakes_fifo_waiter(env, db):
    locks = LockManager(env)
    transactions = [db.begin() for _ in range(3)]
    order = []

    def proc(env, tx, name, start):
        yield env.timeout(start)
        yield from locks.acquire(tx, "accounts", 1)
        order.append(name)
        yield env.timeout(5.0)
        locks.release_all(tx)

    for index, tx in enumerate(transactions):
        env.process(proc(env, tx, f"tx{index}", float(index)))
    env.run()
    assert order == ["tx0", "tx1", "tx2"]
