"""Column types and value coercion for the relational engine."""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["ColumnType", "INTEGER", "FLOAT", "TEXT", "BOOLEAN", "TypeError_", "coerce"]


class TypeError_(Exception):
    """Raised when a value cannot be stored in a column of a given type."""


class ColumnType:
    """A storable column type with validation."""

    name = "abstract"

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` for storage; raise :class:`TypeError_` if invalid."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class _Integer(ColumnType):
    name = "INTEGER"

    def validate(self, value: Any) -> int:
        if isinstance(value, bool):
            raise TypeError_(f"boolean {value!r} is not an INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeError_(f"{value!r} is not an INTEGER")


class _Float(ColumnType):
    name = "FLOAT"

    def validate(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeError_(f"boolean {value!r} is not a FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeError_(f"{value!r} is not a FLOAT")


class _Text(ColumnType):
    name = "TEXT"

    def validate(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        raise TypeError_(f"{value!r} is not TEXT")


class _Boolean(ColumnType):
    name = "BOOLEAN"

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        raise TypeError_(f"{value!r} is not a BOOLEAN")


INTEGER = _Integer()
FLOAT = _Float()
TEXT = _Text()
BOOLEAN = _Boolean()


def coerce(column_type: ColumnType, value: Any, nullable: bool) -> Optional[Any]:
    """Validate ``value`` against ``column_type``, honouring nullability."""
    if value is None:
        if nullable:
            return None
        raise TypeError_("NULL in non-nullable column")
    return column_type.validate(value)
