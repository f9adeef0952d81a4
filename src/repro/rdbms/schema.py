"""Table schemas: columns, primary keys, secondary indexes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from .types import ColumnType, TypeError_, coerce

__all__ = ["Column", "TableSchema", "SchemaError"]


class SchemaError(Exception):
    """Raised for malformed schema definitions or violated constraints."""


@dataclass(frozen=True)
class Column:
    """One column: name, type, nullability, optional default."""

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = None

    def coerce(self, value: Any) -> Any:
        try:
            return coerce(self.type, value, self.nullable)
        except TypeError_ as error:
            raise SchemaError(f"column {self.name!r}: {error}") from None


class TableSchema:
    """Schema for one table.

    ``indexes`` lists columns that get secondary hash indexes; the primary
    key is always indexed.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str,
        indexes: Sequence[str] = (),
    ):
        if not columns:
            raise SchemaError(f"table {name!r} has no columns")
        self.name = name
        self.columns: List[Column] = list(columns)
        self.column_map: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self.column_map:
                raise SchemaError(f"duplicate column {column.name!r} in {name!r}")
            self.column_map[column.name] = column
        if primary_key not in self.column_map:
            raise SchemaError(f"primary key {primary_key!r} is not a column of {name!r}")
        self.primary_key = primary_key
        for index in indexes:
            if index not in self.column_map:
                raise SchemaError(f"indexed column {index!r} is not a column of {name!r}")
        self.indexes: List[str] = [c for c in indexes if c != primary_key]

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self.column_map[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def normalize_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and complete a row dict (applying defaults)."""
        unknown = set(values) - set(self.column_map)
        if unknown:
            raise SchemaError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        row: Dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                row[column.name] = column.coerce(values[column.name])
            else:
                row[column.name] = column.coerce(column.default)
        return row
