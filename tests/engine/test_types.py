"""Unit tests for column types and schemas."""

import pytest

from repro.engine.errors import SchemaError
from repro.engine.types import Column, ColumnType, Schema


class TestColumnType:
    def test_int_validation(self):
        assert ColumnType.INT.validate(5) == 5
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(5.0)
        with pytest.raises(SchemaError):
            ColumnType.INT.validate("5")

    def test_bool_rejected_for_int(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(True)

    def test_float_accepts_int_widening(self):
        assert ColumnType.FLOAT.validate(3) == 3.0
        assert isinstance(ColumnType.FLOAT.validate(3), float)

    def test_float_rejects_bool_and_str(self):
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.validate(True)
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.validate("3.0")

    def test_str_validation(self):
        assert ColumnType.STR.validate("hi") == "hi"
        with pytest.raises(SchemaError):
            ColumnType.STR.validate(3)


class TestColumn:
    def test_invalid_names_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT)
        with pytest.raises(SchemaError):
            Column("1bad", ColumnType.INT)
        with pytest.raises(SchemaError):
            Column("has space", ColumnType.INT)


class TestSchema:
    def test_of_shorthand(self):
        schema = Schema.of(a=ColumnType.INT, b=ColumnType.STR)
        assert schema.names == ("a", "b")
        assert schema.width == 2

    def test_positions(self):
        schema = Schema.of(a=ColumnType.INT, b=ColumnType.STR)
        assert schema.position("b") == 1
        with pytest.raises(SchemaError, match="no column"):
            schema.position("c")
        assert "a" in schema
        assert "z" not in schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", ColumnType.INT), Column("a", ColumnType.STR)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_validate_row(self):
        schema = Schema.of(a=ColumnType.INT, b=ColumnType.FLOAT)
        assert schema.validate_rows([[1, 2]]) == [(1, 2.0)]
        with pytest.raises(SchemaError):
            schema.validate_rows([[1]])
        with pytest.raises(SchemaError):
            schema.validate_rows([["x", 2.0]])

    def test_equality_and_hash(self):
        s1 = Schema.of(a=ColumnType.INT)
        s2 = Schema.of(a=ColumnType.INT)
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1 != Schema.of(a=ColumnType.STR)
