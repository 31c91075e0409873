"""PrescannedRows: source-scan CPU charged upstream, not per consumer.

The shared-scan coordinator splits a delta window once and fans the rows
to N views; wrapping them in ``PrescannedRows`` must make the substituted
``RowSource`` skip exactly the per-row
``tuple_cpu`` scan charge -- and nothing else -- while producing
identical rows.
"""

import pytest

from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.operators import PrescannedRows, RowSource
from repro.engine.query import QuerySpec
from repro.engine.types import ColumnType, Schema

ROWS = [(i, i % 7) for i in range(40)]
NAMES = ("k", "v")


class TestRowSource:
    def test_plain_rows_charge_tuple_cpu(self):
        counter = OperationCounter()
        source = RowSource(ROWS, NAMES, "T", counter)
        assert source.rows() == ROWS
        assert counter.snapshot()["tuple_cpu"] == len(ROWS)

    def test_prescanned_rows_skip_the_charge(self):
        counter = OperationCounter()
        source = RowSource(PrescannedRows(ROWS), NAMES, "T", counter)
        assert source.precharged
        assert source.rows() == ROWS
        assert counter.snapshot()["tuple_cpu"] == 0

    def test_prescanned_blocks_skip_the_charge(self):
        counter = OperationCounter()
        source = RowSource(PrescannedRows(ROWS), NAMES, "T", counter)
        out = [row for block in source.blocks(8) for row in block.rows()]
        assert out == ROWS
        assert counter.snapshot()["tuple_cpu"] == 0

    def test_prescanned_rows_still_schema_checked(self):
        counter = OperationCounter()
        from repro.engine.errors import SchemaError

        with pytest.raises(SchemaError):
            RowSource(PrescannedRows([(1, 2, 3)]), NAMES, "T", counter)


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    table = db.create_table("base", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
    for row in ROWS:
        table.insert(row)
    return db


SPEC = QuerySpec(
    base_alias="B",
    base_table="base",
    filters=(col("B.v") < lit(5),),
    projection=("B.k",),
)


def test_substituted_query_discount_is_exactly_the_scan():
    """Same query, same rows: prescanned costs exactly len(rows) less
    tuple_cpu, identical otherwise."""
    db = make_db(block_size=8)
    sub = [row for row in ROWS if row[1] < 99]  # all rows, plain list

    before = db.counter.snapshot()
    plain = db.execute(SPEC, substitutions={"B": sub})
    mid = db.counter.snapshot()
    pre = db.execute(SPEC, substitutions={"B": PrescannedRows(sub)})
    after = db.counter.snapshot()

    assert pre.rows == plain.rows
    plain_charges = {f: mid[f] - before[f] for f in mid}
    pre_charges = {f: after[f] - mid[f] for f in after}
    assert (
        plain_charges["tuple_cpu"] - pre_charges["tuple_cpu"] == len(sub)
    )
    for field in plain_charges:
        if field != "tuple_cpu":
            assert pre_charges[field] == plain_charges[field], field
