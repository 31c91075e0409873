"""dbgen-compatible ``.tbl`` table export.

TPC's ``dbgen`` emits one pipe-delimited ``<table>.tbl`` file per table,
each line ending with a trailing ``|``::

    1|Supplier#000000001|N kD4on9OM Ipw3,gf0JBoQDd7tgrzrddZ|17|27-918-335-1736|5755.94|each slyly above the careful|

This module writes that format against the engine's schemas, so the
reproduction's tables can be snapshotted to disk in dbgen's layout.

Values are rendered by column type: ints and strings verbatim, floats with
``repr``-round-tripping precision.  The format has no escaping: a ``|`` in
a string column is rejected at export (dbgen never produces one).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro import obs
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.table import Table
from repro.engine.types import ColumnType, Schema


def dump_table(table: Table, path: str | Path) -> int:
    """Write a table's live rows as a ``.tbl`` file; returns rows written."""
    path = Path(path)
    count = 0
    with obs.trace("engine.io.dump_table", table=table.name) as span:
        with path.open("w", encoding="utf-8") as handle:
            for row in table.live_rows():
                handle.write(_render_row(row, table.schema))
                handle.write("\n")
                count += 1
        span.set(rows=count)
        obs.counter("engine.io.rows_written", count)
    return count


def dump_database(db: Database, directory: str | Path) -> dict[str, int]:
    """Dump every table of ``db`` to ``<directory>/<table>.tbl``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return {
        name: dump_table(table, directory / f"{name}.tbl")
        for name, table in sorted(db.tables.items())
    }


def _render_row(row: Iterable, schema: Schema) -> str:
    parts = []
    for column, value in zip(schema.columns, row):
        if column.type is ColumnType.STR:
            if "|" in value:
                raise ExecutionError(
                    f"cannot export {value!r}: the .tbl format has no "
                    f"escaping for '|'"
                )
            parts.append(value)
        elif column.type is ColumnType.FLOAT:
            parts.append(repr(value))
        else:
            parts.append(str(value))
    return "|".join(parts) + "|"

