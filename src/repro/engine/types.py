"""Column types and table schemas.

The engine is dynamically typed at storage level (rows are plain tuples)
but schemas validate values on insert and give every physical operator the
column-name-to-position mapping it needs.  Three SQL-ish types cover the
TPC-R subset: integers (keys, quantities, money-as-cents), floats
(supplycost and other decimals), and strings (names, comments).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.engine.errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = ("int", int)
    FLOAT = ("float", float)
    STR = ("str", str)

    def __new__(cls, label: str, exact: type):
        member = object.__new__(cls)
        member._value_ = label
        #: The Python type :meth:`validate` returns values of unchanged
        #: (as a set, for :meth:`validate_column`).
        member.exact = frozenset((exact,))
        return member

    def validate(self, value: Any) -> Any:
        """Coerce-and-check ``value`` for this type; raise on mismatch.

        Ints are accepted for FLOAT columns (SQL numeric widening); bools
        are rejected for INT columns (a classic Python pitfall, since
        ``bool`` subclasses ``int``).
        """
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r}")
            return float(value)
        if not isinstance(value, str):
            raise SchemaError(f"expected str, got {value!r}")
        return value

    def validate_column(self, values: Sequence[Any]) -> Sequence[Any]:
        """:meth:`validate` over one column of a batch.

        A column whose values are all exactly this type's Python type is
        accepted as it stands after one pass over ``map(type, values)``; any
        other column (a ``bool`` or an ``int`` subclass in an INT column,
        ints to widen in a FLOAT column, a wrong value) goes through
        :meth:`validate` value by value, so what is accepted, coerced or
        rejected is the same either way.
        """
        if self.exact.issuperset(map(type, values)):
            return values
        return [self.validate(value) for value in values]


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")


class Schema:
    """An ordered collection of uniquely named columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns: tuple[Column, ...] = tuple(columns)
        self._positions = {c.name: i for i, c in enumerate(columns)}

    @classmethod
    def of(cls, **specs: ColumnType) -> "Schema":
        """Shorthand: ``Schema.of(suppkey=ColumnType.INT, name=ColumnType.STR)``."""
        return cls([Column(n, t) for n, t in specs.items()])

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(c.name for c in self.columns)

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def position(self, name: str) -> int:
        """Index of column ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; have {list(self._positions)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> list[tuple]:
        """Type-check a batch of rows, column by column.

        Returns each row as a canonical tuple, in order; raises before
        returning anything if any row's width or any value is wrong.
        """
        rows = list(rows)
        width = self.width
        if set(map(len, rows)) - {width}:
            bad = next(row for row in rows if len(row) != width)
            raise SchemaError(
                f"row has {len(bad)} values, schema has {width} columns"
            )
        return list(zip(*(
            column.type.validate_column(values)
            for column, values in zip(self.columns, zip(*rows))
        )))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.type.value}" for c in self.columns)
        return f"Schema({cols})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)
