"""The database engine facade: DDL, statement execution, transactions.

This is the *pure* engine — it executes instantly in simulated time.
Timing, locking, and network protocol live in :mod:`repro.rdbms.server`
and :mod:`repro.rdbms.jdbc`.

A SQL text of the dialect (:mod:`repro.rdbms.sql`) is parsed, analysed
and compiled once per database: the
:class:`~repro.rdbms.executor.PreparedStatement` of every text lives in
one bounded LRU here, and executing is lookup + bind + run.

A database's data and counters can be taken as a :class:`DatabaseImage`
and rebuilt from it without SQL: that is how a process populates each
application dataset once (:mod:`repro.apps.dataset`).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from .executor import Executor, PreparedStatement, ResultSet
from .lru import LruCache
from .schema import TableSchema
from .sql import Statement, parse_cached
from .storage import Table
from .transactions import Transaction

__all__ = ["Database", "DatabaseError", "DatabaseImage"]

_PREPARED_LIMIT = 4096

# What the execution entry points accept: SQL text, a pre-built AST, or a
# statement this database already prepared.
Preparable = Union[str, Statement, PreparedStatement]


class DatabaseError(Exception):
    """Raised for engine-level misuse (unknown table, bad DDL)."""


class DatabaseImage(NamedTuple):
    """A database as immutable data: what :meth:`Database.from_image` rebuilds.

    The schemas and the row dicts are shared with the imaged database
    and with every database rebuilt from the image; no write changes
    either (a stored row is replaced, never mutated).
    """

    name: str
    # (schema, rows) per table, in creation order; see Table.image.
    tables: Tuple[Tuple[TableSchema, Tuple[Dict[str, Any], ...]], ...]
    statements_executed: int
    rows_scanned_total: int
    next_transaction_id: int
    # The executor's attributes other than its tables: scan counters and
    # the force_full_scans switch.
    executor_state: Tuple[Tuple[str, Any], ...]


class Database:
    """A named collection of tables plus an executor.

    Statements may be SQL text (prepared once, see :meth:`prepare`),
    pre-built statement ASTs, or prepared statements of this database.
    Passing a :class:`Transaction` collects undo information; without
    one, statements auto-commit.
    """

    def __init__(self, name: str):
        self.name = name
        self.tables: Dict[str, Table] = {}
        self._executor = Executor(self.tables)
        # SQL text -> PreparedStatement.  Entries bind Table objects, so
        # they live and die with this database and are dropped whenever
        # the table set changes.
        self._prepared = LruCache(_PREPARED_LIMIT)
        self.statements_executed = 0
        self.rows_scanned_total = 0
        # Per-instance so a fresh Database starts at id 1: transaction
        # ids must not leak across cell runs in one worker process.
        self._next_transaction_id = 1

    @property
    def executor(self) -> Executor:
        """The query executor (read-only access to its scan counters)."""
        return self._executor

    # -- DDL / loading -----------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise DatabaseError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        self._prepared.clear()
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise DatabaseError(f"no such table {name!r}") from None

    def load(self, table_name: str, rows) -> int:
        return self.table(table_name).bulk_load(rows)

    # -- images -----------------------------------------------------------
    def image(self) -> DatabaseImage:
        """This database's schemas, rows and counters, as immutable data."""
        executor_state = dict(vars(self._executor))
        del executor_state["tables"]
        return DatabaseImage(
            name=self.name,
            tables=tuple((table.schema, table.image()) for table in self.tables.values()),
            statements_executed=self.statements_executed,
            rows_scanned_total=self.rows_scanned_total,
            next_transaction_id=self._next_transaction_id,
            executor_state=tuple(executor_state.items()),
        )

    @classmethod
    def from_image(cls, image: DatabaseImage) -> Database:
        """A new database equal to the one ``image`` was taken of.

        Rows, indexes, the executor's scan counters and the statement
        counters are equal; no SQL runs.  The rows are the image's own
        dicts, shared until one side writes.  The prepared statements are not
        part of an image (they bind the tables they were prepared
        against), so each text is prepared again, to the same access path,
        on its first execution.
        """
        database = cls(image.name)
        for schema, rows in image.tables:
            database.create_table(schema).load_image(rows)
        database.statements_executed = image.statements_executed
        database.rows_scanned_total = image.rows_scanned_total
        database._next_transaction_id = image.next_transaction_id
        vars(database._executor).update(image.executor_state)
        return database

    # -- transactions -----------------------------------------------------------
    def begin(self, read_only: bool = False) -> Transaction:
        transaction_id = self._next_transaction_id
        self._next_transaction_id += 1
        return Transaction(self.tables, read_only=read_only, id=transaction_id)

    # -- execution -----------------------------------------------------------
    def prepare(self, statement: Preparable) -> PreparedStatement:
        """The prepared form of ``statement``, built on first sight of a text.

        A pre-built AST goes through the same constructor, uncached; a
        prepared statement (of this database) is returned as it is.
        Raises :class:`~repro.rdbms.executor.ExecutionError` when the
        statement names a table this database does not have.
        """
        if type(statement) is PreparedStatement:
            return statement
        if not isinstance(statement, str):
            return PreparedStatement(self._executor, statement)
        prepared = self._prepared.get(statement)
        if prepared is None:
            prepared = PreparedStatement(self._executor, parse_cached(statement))
            self._prepared.put(statement, prepared)
        return prepared

    def execute(
        self,
        statement: Preparable,
        params: Tuple[Any, ...] = (),
        transaction: Optional[Transaction] = None,
    ) -> ResultSet:
        kind = type(statement)
        if kind is PreparedStatement:
            prepared = statement
        else:  # the hit of :meth:`prepare`, inline: this is the hot path
            prepared = self._prepared.get(statement) if kind is str else None
            if prepared is None:
                prepared = self.prepare(statement)
        undo_log = None
        if transaction is not None:
            if transaction.read_only and prepared.is_write:
                raise DatabaseError("write statement in a read-only transaction")
            undo_log = transaction.undo_log
        result = prepared.run(params, undo_log)
        self.statements_executed += 1
        self.rows_scanned_total += result.rows_scanned
        return result

    # -- introspection -----------------------------------------------------------
    def write_targets(
        self, statement: Preparable, params: Tuple[Any, ...] = ()
    ) -> List[Tuple[str, Any]]:
        """The (table, key) pairs a mutation will touch — used for locking
        (see :meth:`PreparedStatement.write_targets`)."""
        return self.prepare(statement).write_targets(params)
