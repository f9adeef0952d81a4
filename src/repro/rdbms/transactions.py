"""Transactions: undo-log atomicity and row-level write locks.

Atomicity is synchronous (the engine applies/undoes changes instantly in
simulated time); *isolation* is enforced in simulated time by
:class:`LockManager`, whose ``acquire`` is a generator that blocks the
calling process until conflicting writers release — this is how lock
contention appears as response-time in experiments.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

from ..simnet.kernel import Environment, Event
from .storage import Table

__all__ = ["Transaction", "TransactionError", "LockManager"]


class TransactionError(Exception):
    """Raised on transaction misuse (double commit, commit after abort)."""


# Fallback for transactions built directly (tests, ad-hoc engine use).
# ``Database.begin`` passes an explicit id from its own per-instance
# counter, so cell runs never draw from this process-lifetime global —
# that was a cross-run id leak the ``reset_ids()`` contract missed.
_transaction_ids = itertools.count(1)


class Transaction:
    """A unit of work with an undo log.

    The undo log records ``(table_name, op, image)`` entries appended by
    :class:`~repro.rdbms.executor.Executor`; :meth:`rollback` replays them
    in reverse.
    """

    def __init__(
        self,
        tables: Dict[str, Table],
        read_only: bool = False,
        id: Optional[int] = None,
    ):
        self.id = next(_transaction_ids) if id is None else id
        self.tables = tables
        self.read_only = read_only
        self.undo_log: List[Tuple[str, str, Any]] = []
        self.state = "active"  # active | committed | aborted
        self.locks: Set[Tuple[str, Any]] = set()

    def _require_active(self) -> None:
        if self.state != "active":
            raise TransactionError(f"transaction {self.id} is {self.state}")

    def commit(self) -> None:
        self._require_active()
        self.state = "committed"
        self.undo_log.clear()

    def rollback(self) -> None:
        self._require_active()
        for table_name, op, image in reversed(self.undo_log):
            table = self.tables[table_name]
            if op == "insert":
                table.delete(image)  # image is the inserted primary key
            elif op == "update":
                table.restore(image)  # image is the prior row
            else:  # pragma: no cover - executor writes only these ops
                raise TransactionError(f"unknown undo op {op!r}")
        self.undo_log.clear()
        self.state = "aborted"

    @property
    def writes(self) -> int:
        return len(self.undo_log)


class LockManager:
    """Exclusive row-level locks with FIFO waiting in simulated time.

    Locks are keyed by ``(table, primary_key)``; a whole-table write (an
    UPDATE whose targets cannot be found) locks the sentinel key ``('*',)``.
    Deadlock handling is by timeout: a waiter that is not granted within
    ``timeout_ms`` gets a :class:`TransactionError` thrown into it.
    """

    TABLE_SENTINEL = ("*",)

    def __init__(self, env: Environment, timeout_ms: float = 10_000.0):
        self.env = env
        self.timeout_ms = timeout_ms
        self._owners: Dict[Tuple[str, Any], int] = {}
        self._waiters: Dict[Tuple[str, Any], Deque[Tuple[int, Event]]] = {}
        self.timeouts = 0
        self.waits = 0

    def acquire(self, transaction: Transaction, table: str, key: Any) -> Generator[Event, Any, None]:
        """Block until ``transaction`` holds the (table, key) lock."""
        lock_key = (table, key)
        owner = self._owners.get(lock_key)
        if owner == transaction.id:
            return  # re-entrant
        if owner is None and not self._waiters.get(lock_key):
            self._owners[lock_key] = transaction.id
            transaction.locks.add(lock_key)
            return
        # Contended: enqueue and wait with a timeout.
        self.waits += 1
        grant = self.env.event()
        queue = self._waiters.setdefault(lock_key, deque())
        queue.append((transaction.id, grant))
        timeout = self.env.timeout(self.timeout_ms, value="timeout")
        outcome = yield self.env.any_of([grant, timeout])
        if 0 not in outcome:  # the grant did not fire first
            try:
                queue.remove((transaction.id, grant))
            except ValueError:
                pass
            self.timeouts += 1
            raise TransactionError(
                f"lock wait timeout on {table}[{key!r}] for transaction {transaction.id}"
            )
        self._owners[lock_key] = transaction.id
        transaction.locks.add(lock_key)

    def release_all(self, transaction: Transaction) -> None:
        """Release every lock held by ``transaction`` (commit/abort time)."""
        for lock_key in sorted(transaction.locks, key=repr):
            if self._owners.get(lock_key) != transaction.id:
                continue
            del self._owners[lock_key]
            queue = self._waiters.get(lock_key)
            if queue:
                _next_tx, grant = queue.popleft()
                if not queue:
                    del self._waiters[lock_key]
                # Ownership is assigned when the waiter resumes.
                grant.succeed()
            elif queue is not None:
                del self._waiters[lock_key]
        transaction.locks.clear()

    def holder(self, table: str, key: Any) -> Optional[int]:
        return self._owners.get((table, key))
