"""Live-resize path: ``set_block_size`` semantics.

The adaptive control layer actuates this method between queries, so its
contract is load-bearing: results are identical at every size and a
change re-arms the low-fill diagnosis.
"""

import pytest

from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import QuerySpec
from repro.engine.types import ColumnType, Schema


def make_db(rows=300, block_size=64):
    db = Database(block_size=block_size)
    table = db.create_table(
        "t", Schema.of(k=ColumnType.INT, val=ColumnType.FLOAT)
    )
    for i in range(rows):
        table.insert((i, float(i) * 1.5))
    return db


def chain_spec():
    return QuerySpec(
        base_alias="T",
        base_table="t",
        filters=(col("T.k") >= lit(0),),
        projection=("T.val",),
    )


class TestSetBlockSize:
    def test_changes_take_effect_and_results_stay_identical(self):
        db = make_db(block_size=64)
        before = db.execute(chain_spec()).rows
        assert db.set_block_size(8) == 8
        assert db.block_size == 8
        assert db.execute(chain_spec()).rows == before
        assert db.set_block_size(None) is None  # row-at-a-time
        assert db.execute(chain_spec()).rows == before

    def test_invalid_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.set_block_size(0)

    def test_change_rearms_low_fill_warning(self):
        db = make_db()
        db._low_fill_warned = True
        db.set_block_size(32)
        assert db._low_fill_warned is False

    def test_same_size_keeps_warning_armed_off(self):
        db = make_db(block_size=64)
        db._low_fill_warned = True
        db.set_block_size(64)
        assert db._low_fill_warned is True
