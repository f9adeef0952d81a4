"""Relational database substrate: engine, SQL subset, server, JDBC model."""

from .bptree import BPlusTree
from .engine import Database, DatabaseError
from .executor import ExecutionError, Executor, PreparedStatement, ResultSet
from .expressions import (
    And,
    ColumnRef,
    Comparison,
    EvaluationError,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
    like_matcher,
    like_prefix,
)
from .jdbc import DataSource, JdbcConfig, JdbcConnection, JdbcError
from .plan import AccessChoice, PlanNode, QueryPlan
from .schema import Column, ForeignKey, SchemaError, TableSchema
from .server import DatabaseServer, DbCostModel, DbSession, result_wire_size
from .stats import TableStats
from .sql import (
    Aggregate,
    Delete,
    Insert,
    OrderBy,
    Select,
    SelectItem,
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
    "BPlusTree",
    "Database",
    "DatabaseError",
    "ExecutionError",
    "Executor",
    "PreparedStatement",
    "ResultSet",
    "AccessChoice",
    "PlanNode",
    "QueryPlan",
    "TableStats",
    "like_matcher",
    "like_prefix",
    "And",
    "ColumnRef",
    "Comparison",
    "EvaluationError",
    "Expression",
    "InList",
    "Like",
    "Literal",
    "Not",
    "Or",
    "Parameter",
    "DataSource",
    "JdbcConfig",
    "JdbcConnection",
    "JdbcError",
    "Column",
    "ForeignKey",
    "SchemaError",
    "TableSchema",
    "DatabaseServer",
    "DbCostModel",
    "DbSession",
    "result_wire_size",
    "Aggregate",
    "Delete",
    "Insert",
    "OrderBy",
    "Select",
    "SelectItem",
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
