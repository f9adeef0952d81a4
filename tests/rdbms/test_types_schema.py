"""Unit tests for column types and table schemas."""

import pytest

from repro.rdbms.schema import Column, SchemaError, TableSchema
from repro.rdbms.types import BOOLEAN, FLOAT, INTEGER, TEXT, TypeError_, coerce


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_integer_accepts_ints_and_integral_floats():
    assert INTEGER.validate(5) == 5
    assert INTEGER.validate(5.0) == 5


def test_integer_rejects_bools_and_text():
    with pytest.raises(TypeError_):
        INTEGER.validate(True)
    with pytest.raises(TypeError_):
        INTEGER.validate("5")
    with pytest.raises(TypeError_):
        INTEGER.validate(5.5)


def test_float_accepts_numbers():
    assert FLOAT.validate(5) == 5.0
    assert isinstance(FLOAT.validate(5), float)


def test_float_rejects_bool():
    with pytest.raises(TypeError_):
        FLOAT.validate(False)


def test_text_and_boolean():
    assert TEXT.validate("hello") == "hello"
    assert BOOLEAN.validate(True) is True
    with pytest.raises(TypeError_):
        TEXT.validate(1)
    with pytest.raises(TypeError_):
        BOOLEAN.validate(1)


def test_coerce_null_handling():
    assert coerce(TEXT, None, nullable=True) is None
    with pytest.raises(TypeError_):
        coerce(TEXT, None, nullable=False)


def test_types_equality():
    assert INTEGER == INTEGER
    assert INTEGER != TEXT
    assert hash(INTEGER) == hash(INTEGER)


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def _schema(**kwargs):
    defaults = dict(
        name="t",
        columns=[
            Column("id", INTEGER),
            Column("name", TEXT),
            Column("score", FLOAT, nullable=True),
        ],
        primary_key="id",
    )
    defaults.update(kwargs)
    return TableSchema(**defaults)


def test_schema_basics():
    schema = _schema(indexes=["name"])
    assert schema.column_names() == ["id", "name", "score"]
    assert schema.indexes == ["name"]
    assert "score" in schema.column_map
    assert "missing" not in schema.column_map


def test_schema_rejects_duplicate_columns():
    with pytest.raises(SchemaError):
        TableSchema("t", [Column("a", TEXT), Column("a", TEXT)], primary_key="a")


def test_schema_rejects_missing_primary_key():
    with pytest.raises(SchemaError):
        _schema(primary_key="nope")


def test_schema_rejects_unknown_index():
    with pytest.raises(SchemaError):
        _schema(indexes=["nope"])


def test_schema_rejects_empty_columns():
    with pytest.raises(SchemaError):
        TableSchema("t", [], primary_key="id")


def test_primary_key_not_duplicated_in_indexes():
    schema = _schema(indexes=["id", "name"])
    assert schema.indexes == ["name"]


def test_normalize_row_applies_defaults_and_validation():
    schema = TableSchema(
        "t",
        [Column("id", INTEGER), Column("flag", TEXT, default="off")],
        primary_key="id",
    )
    row = schema.normalize_row({"id": 1})
    assert row == {"id": 1, "flag": "off"}


def test_normalize_row_rejects_unknown_columns():
    with pytest.raises(SchemaError):
        _schema().normalize_row({"id": 1, "name": "x", "bogus": 2})


def test_normalize_row_rejects_bad_types():
    with pytest.raises(SchemaError):
        _schema().normalize_row({"id": "not-an-int", "name": "x"})
