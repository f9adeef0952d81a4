"""The database *server*: the engine bound to a node, with time and locks.

Statement execution charges the database node's CPU according to a simple
cost model (fixed overhead + per-row-scanned + per-result-row), and write
statements acquire row-level locks that are held until the enclosing
transaction finishes — so lock contention and database load show up in
simulated response times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple, Union

from ..simnet.kernel import Environment, Event
from ..simnet.network import Node
from .engine import Database
from .executor import ResultSet
from .sql import Statement
from .transactions import LockManager, Transaction

__all__ = ["DbCostModel", "DbSession", "DatabaseServer", "result_wire_size"]


@dataclass
class DbCostModel:
    """CPU-time model for statement execution on the database node (ms)."""

    statement_overhead: float = 0.15
    per_row_scanned: float = 0.004
    per_result_row: float = 0.02
    per_write: float = 0.30
    commit_overhead: float = 0.25

    def execution_time(self, result: ResultSet, is_write: bool) -> float:
        time = self.statement_overhead
        time += self.per_row_scanned * result.rows_scanned
        time += self.per_result_row * len(result.rows)
        if is_write:
            time += self.per_write * max(1, result.affected)
        return time


def result_wire_size(result: ResultSet) -> int:
    """Approximate serialized size of a result set in bytes."""
    size = 64  # framing / column metadata
    size += 16 * len(result.columns)
    for row in result.rows:
        for value in row.values():
            if value is None:
                size += 1
            elif isinstance(value, str):
                size += len(value) + 2
            else:
                size += 10
    return size


class DbSession:
    """Server-side state for one client connection.

    A session has at most one open transaction.  In auto-commit mode each
    statement commits immediately (releasing its locks).
    """

    def __init__(self, server: "DatabaseServer"):
        self.id = next(server._session_ids)
        self.server = server
        self.transaction: Optional[Transaction] = None
        self.auto_commit = True

    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None


class DatabaseServer:
    """Binds a :class:`Database` to a :class:`Node` and meters execution."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        database: Database,
        cost_model: Optional[DbCostModel] = None,
    ):
        self.env = env
        self.node = node
        self.database = database
        self.cost_model = cost_model or DbCostModel()
        self.locks = LockManager(env)
        self.statements = 0
        self.commits = 0
        self.rollbacks = 0
        # Per server, so a fresh deployment numbers its sessions from 1
        # however many cells the worker process ran before.
        self._session_ids = itertools.count(1)

    def counters(self) -> Dict[str, int]:
        """Cumulative statement and executor counters, by metric name."""
        database = self.database
        executor = database.executor
        return {
            "db.statements": self.statements,
            "db.commits": self.commits,
            "db.rollbacks": self.rollbacks,
            "db.rows_scanned": database.rows_scanned_total,
            "db.statements_executed": database.statements_executed,
            "db.executor.index_scans": executor.index_scans,
            "db.executor.full_scans": executor.full_scans,
            "db.executor.range_scans": executor.range_scans,
            "db.executor.join_index_lookups": executor.join_index_lookups,
            "db.executor.join_full_scans": executor.join_full_scans,
        }

    # -- session lifecycle -----------------------------------------------------
    def open_session(self) -> DbSession:
        return DbSession(self)

    def begin(self, session: DbSession, read_only: bool = False) -> None:
        """Start an explicit transaction (turns auto-commit off)."""
        if session.in_transaction:
            raise RuntimeError(f"session {session.id} already in a transaction")
        session.transaction = self.database.begin(read_only=read_only)
        session.auto_commit = False

    def commit(self, session: DbSession) -> Generator[Event, Any, None]:
        """Commit the session's transaction; charges CPU, releases locks."""
        transaction = session.transaction
        if transaction is None:
            raise RuntimeError(f"session {session.id} has no transaction")
        yield from self.node.compute(self.cost_model.commit_overhead)
        transaction.commit()
        self.locks.release_all(transaction)
        session.transaction = None
        session.auto_commit = True
        self.commits += 1

    def rollback(self, session: DbSession) -> Generator[Event, Any, None]:
        transaction = session.transaction
        if transaction is None:
            raise RuntimeError(f"session {session.id} has no transaction")
        yield from self.node.compute(self.cost_model.commit_overhead)
        transaction.rollback()
        self.locks.release_all(transaction)
        session.transaction = None
        session.auto_commit = True
        self.rollbacks += 1

    # -- execution -----------------------------------------------------------
    def execute(
        self,
        session: DbSession,
        statement: Union[str, Statement],
        params: Tuple[Any, ...] = (),
    ) -> Generator[Event, Any, ResultSet]:
        """Run one statement inside the session, in simulated time."""
        # Prepared once for the lock targets and the execution alike.
        statement = self.database.prepare(statement)
        is_write = statement.is_write

        implicit = False
        if session.transaction is None:
            session.transaction = self.database.begin()
            implicit = True
        transaction = session.transaction

        if is_write:
            for table, key in self.database.write_targets(statement, params):
                yield from self.locks.acquire(transaction, table, key)

        result = self.database.execute(statement, params, transaction=transaction)
        self.statements += 1
        yield from self.node.compute(self.cost_model.execution_time(result, is_write))

        if implicit:
            if session.auto_commit:
                transaction.commit()
                self.locks.release_all(transaction)
                session.transaction = None
                self.commits += 1
            # else: the caller issued BEGIN lazily; keep the transaction.
        return result
