"""Relational database substrate: engine, SQL dialect, server, JDBC model."""

from .engine import Database, DatabaseError
from .executor import ExecutionError, Executor, PreparedStatement, ResultSet
from .expressions import (
    And,
    Between,
    ColumnRef,
    Equals,
    EvaluationError,
    Expression,
    Like,
    Literal,
    Or,
    Parameter,
    like_matcher,
)
from .jdbc import DataSource, JdbcConfig, JdbcConnection, JdbcError
from .schema import Column, SchemaError, TableSchema
from .server import DatabaseServer, DbCostModel, DbSession, result_wire_size
from .sql import (
    Insert,
    JoinClause,
    Select,
    SqlError,
    Statement,
    TableRef,
    Update,
    parse,
    parse_cached,
)
from .storage import StorageError, Table
from .transactions import LockManager, Transaction, TransactionError
from .types import BOOLEAN, FLOAT, INTEGER, TEXT, ColumnType

__all__ = [
    "Database",
    "DatabaseError",
    "ExecutionError",
    "Executor",
    "PreparedStatement",
    "ResultSet",
    "like_matcher",
    "And",
    "Between",
    "ColumnRef",
    "Equals",
    "EvaluationError",
    "Expression",
    "Like",
    "Literal",
    "Or",
    "Parameter",
    "DataSource",
    "JdbcConfig",
    "JdbcConnection",
    "JdbcError",
    "Column",
    "SchemaError",
    "TableSchema",
    "DatabaseServer",
    "DbCostModel",
    "DbSession",
    "result_wire_size",
    "Insert",
    "JoinClause",
    "Select",
    "SqlError",
    "Statement",
    "TableRef",
    "Update",
    "parse",
    "parse_cached",
    "StorageError",
    "Table",
    "LockManager",
    "Transaction",
    "TransactionError",
    "BOOLEAN",
    "FLOAT",
    "INTEGER",
    "TEXT",
    "ColumnType",
]
