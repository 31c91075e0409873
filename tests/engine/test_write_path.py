"""The batched write path and the columnar modification log.

Three parts:

* what a failed batch leaves (nothing for a bad value; the applied prefix,
  consistently, for a bad row id);
* literals recorded at the commit before the write path was batched, for
  the three update streams: they pin the RNG draw order and the in-batch
  chains (a slot drawn twice in a batch names the version the first draw
  created), whatever the batch size;
* the log's own checks, and one charge and one metric per batch.

Generated batches against a row-by-row model of the table
(:class:`tests.oracle.Model`) are rules of the stateful oracle,
``tests/ivm/test_oracle_machine.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import obs
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.table import ModEvent, ModLog, Table
from repro.engine.types import ColumnType, Schema
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import (
    NationRegionUpdater,
    PartSuppCostUpdater,
    SupplierNationUpdater,
)


def make_table(indexes=()) -> Table:
    table = Table(
        "t",
        Schema.of(k=ColumnType.INT, a=ColumnType.INT, x=ColumnType.FLOAT),
    )
    # Four-modification chunks, so batches straddle chunk boundaries.
    table.history = ModLog(chunk_size=4)
    for column in indexes:
        table.create_index(column)
    return table


def test_single_row_methods_are_batches_of_one():
    one, many = make_table(("k",)), make_table(("k",))
    events = [
        one.insert((1, 2, 3)),
        one.insert((4, 5, 6.5)),
        one.update_rid(0, {"a": 7, "x": 1}),
    ]
    one.delete_rids([1])
    many.insert_rows([(1, 2, 3), (4, 5, 6.5)])
    many.update_rids([0], {"a": [7], "x": [1]})
    many.delete_rids([1])
    assert events == list(one.history)[:3]
    assert list(one.history) == list(many.history)
    assert [e.kind for e in one.history] == [
        "insert", "insert", "update", "delete",
    ]
    assert events[2].new_values == (1, 7, 1.0)
    assert one.counter.snapshot() == many.counter.snapshot()
    assert list(one.live_rows()) == list(many.live_rows()) == [(1, 7, 1.0)]


# ----------------------------------------------------------------------
# What a failed batch leaves
# ----------------------------------------------------------------------


def state(table: Table):
    return (
        table.current_lsn,
        len(table.history),
        table.version_count(),
        table.live_count,
        [(v.values, v.xmin, v.xmax)
         for v in map(table.version, range(table.version_count()))],
        {
            index.column: {
                key: [(v.values, v.xmin, v.xmax) for v in versions]
                for key, versions in table.versions_by_key(index.column).items()
            }
            for index in table.indexes.values()
        },
        table.counter.snapshot(),
    )


@pytest.fixture
def table():
    t = make_table(("k",))
    t.insert_rows([(i, 10 * i, float(i)) for i in range(4)])
    t.delete_rids([2])
    return t


class TestFailedBatch:
    def test_dead_rid_leaves_the_prefix_as_single_calls_would(self, table):
        reference = make_table(("k",))
        reference.insert_rows([(i, 10 * i, float(i)) for i in range(4)])
        reference.delete_rids([2])
        reference.update_rid(0, {"k": 100})
        reference.update_rid(1, {"k": 101})

        lsn = table.current_lsn
        writes = table.counter.row_writes
        with pytest.raises(ExecutionError, match="row id 2 in t is not live"):
            table.update_rids([0, 1, 2, 3], {"k": [100, 101, 102, 103]})
        assert state(table) == state(reference)
        assert table.current_lsn == len(table.history) == lsn + 2
        assert [
            (e.kind, e.new_values[0]) for e in list(table.history)[lsn:lsn + 2]
        ] == [("update", 100), ("update", 101)]
        # Both new versions are found through the index; the fourth row,
        # after the dead one, was not touched.
        snapshot = table.snapshot()
        assert snapshot.lookup("k", 100) == [(100, 0, 0.0)]
        assert snapshot.lookup("k", 101) == [(101, 10, 1.0)]
        assert snapshot.lookup("k", 103) == []
        assert snapshot.lookup("k", 3) == [(3, 30, 3.0)]
        assert table.counter.row_writes == writes + 4

    def test_out_of_range_rid_in_a_delete_batch(self, table):
        lsn = table.current_lsn
        with pytest.raises(ExecutionError, match="out of range"):
            table.delete_rids([0, 99, 1])
        assert table.current_lsn == len(table.history) == lsn + 1
        assert table.live_rids() == [1, 3]

    def test_rid_named_twice_is_dead_at_its_second_turn(self, table):
        lsn = table.current_lsn
        with pytest.raises(ExecutionError, match="not live"):
            table.update_rids([0, 0], {"a": [1, 2]})
        assert table.current_lsn == len(table.history) == lsn + 1

    def test_version_made_in_the_batch_may_be_named_later_in_it(self, table):
        fresh = table.version_count()
        lsns = table.update_rids([0, fresh, fresh + 1], {"a": [1, 2, 3]})
        assert len(lsns) == 3
        news = table.history.columns(lsns[0] - 1, lsns[-1])[1]
        assert [row[1] for row in news] == [1, 2, 3]
        assert table.version(fresh + 2).values == (0, 3, 0.0)
        assert table.live_rids() == [1, 3, fresh + 2]
        # ... but not before it exists.
        with pytest.raises(ExecutionError, match="out of range"):
            table.update_rids([table.version_count()], {"a": [0]})

    @pytest.mark.parametrize(
        "write, error",
        [
            (lambda t: t.update_rids([0, 1], {"k": [5, True]}), SchemaError),
            (lambda t: t.update_rids([0, 1], {"x": [1.0, "y"]}), SchemaError),
            (lambda t: t.update_rids([0, 1], {"nope": [1, 2]}), SchemaError),
            (lambda t: t.update_rids([0, 1], {"k": [5]}), ExecutionError),
            (lambda t: t.update_rids([0, 1], {"k": [5, 6], "a": [1, 2, 3]}),
             ExecutionError),
            (lambda t: t.update_rids([0, 1], {}), ExecutionError),
            (lambda t: t.update_rid(0, {}), ExecutionError),
            (lambda t: t.insert_rows([(1, 2, 3.0), (1, 2)]), SchemaError),
            (lambda t: t.insert_rows([(1, 2, 3.0), (1, True, 3.0)]), SchemaError),
            (lambda t: t.insert((1, 2, 3.0, 4)), SchemaError),
        ],
    )
    def test_bad_value_or_width_changes_nothing(self, table, write, error):
        before = state(table)
        with pytest.raises(error):
            write(table)
        assert state(table) == before
        assert table.current_lsn == len(table.history)

    def test_empty_batches_take_no_lsn(self, table):
        before = state(table)
        assert len(table.insert_rows([])) == 0
        assert len(table.delete_rids([])) == 0
        assert len(table.update_rids([], {"k": []})) == 0
        assert state(table) == before


# ----------------------------------------------------------------------
# Column-wise validation accepts exactly what value-wise validation does
# ----------------------------------------------------------------------


class TestValidateRows:
    schema = Schema.of(k=ColumnType.INT, x=ColumnType.FLOAT, s=ColumnType.STR)

    def test_rows_come_back_as_canonical_tuples(self):
        assert self.schema.validate_rows([[1, 2, "a"], (3, 4.5, "b")]) == [
            (1, 2.0, "a"), (3, 4.5, "b"),
        ]
        widened = self.schema.validate_rows(iter([(1, 2, "a")]))[0][1]
        assert type(widened) is float
        assert self.schema.validate_rows([]) == []

    def test_int_subclass_is_still_an_int(self):
        class Key(int):
            pass

        assert self.schema.validate_rows([(Key(7), 1.0, "a")]) == [(7, 1.0, "a")]

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 1.0, "a"), (True, 1.0, "a")],
            [(1, 1.0, "a"), (1, False, "a")],
            [(1, 1.0, "a"), (1, 1.0, 5)],
            [(1, 1.0, "a"), (1.5, 1.0, "a")],
            [(1, 1.0, "a"), (1, 1.0)],
        ],
    )
    def test_batch_rejects_what_a_single_row_rejects(self, rows):
        with pytest.raises(SchemaError) as single:
            self.schema.validate_rows([rows[1]])
        with pytest.raises(SchemaError) as batch:
            self.schema.validate_rows(rows)
        assert str(batch.value) == str(single.value)


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------


class TestColumnarLog:
    def test_extend_and_columns_straddle_chunks(self):
        log = ModLog(chunk_size=4)
        olds = [None, None, (0,), (1,), None, (2,), (3,)]
        news = [(0,), (1,), (2,), None, (4,), (3,), (5,)]
        log.extend(olds[:3], news[:3])
        log.extend(olds[3:], news[3:])
        assert len(log) == 7
        assert log.columns(0, 7) == (olds, news)
        assert log.columns(2, 6) == (olds[2:6], news[2:6])
        assert log.columns(5, 5) == ([], [])
        assert [e.kind for e in log] == [
            "insert", "insert", "update", "delete", "insert", "update", "update",
        ]
        assert log[3] == ModEvent(4, "delete", (1,), None)
        # What columns() hands out is the caller's to keep.
        log.columns(0, 7)[0].clear()
        assert log.columns(0, 7) == (olds, news)

    def test_extend_rejects_what_is_not_a_modification(self):
        log = ModLog(chunk_size=4)
        with pytest.raises(ExecutionError, match="after-image per before-image"):
            log.extend([None, None], [(1,)])
        with pytest.raises(ExecutionError, match="before-image or an after-image"):
            log.extend([(1,), None], [(2,), None])
        assert len(log) == 0 and log.retained == 0

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("insert", (1,), (2,)),
            ("insert", (1,), None),
            ("delete", None, (1,)),
            ("update", None, (1,)),
            ("update", (1,), None),
        ],
    )
    def test_append_rejects_a_kind_its_images_contradict(self, kind, old, new):
        log = ModLog()
        with pytest.raises(ExecutionError, match="carries the images"):
            log.append(ModEvent(1, kind, old, new))
        assert len(log) == 0


# ----------------------------------------------------------------------
# Observability: one count per batch, none per row
# ----------------------------------------------------------------------


def test_write_counters_count_batches_and_rows():
    table = make_table()
    with obs.recording() as recorder:
        table.insert_rows([(i, i, i) for i in range(5)])
        table.update_rids([0, 1], {"a": [7, 8]})
        table.delete_rids([2])
        table.insert_rows([])
        with pytest.raises(ExecutionError):
            table.delete_rids([3, 3, 4])
    metrics = recorder.registry.snapshot()
    assert metrics["engine.table.write_batches"]["value"] == 4
    assert metrics["engine.table.rows_written"]["value"] == 5 + 2 + 1 + 1


# ----------------------------------------------------------------------
# The update streams, against literals recorded before batching
# ----------------------------------------------------------------------

#: (table, seed) -> digest of the (old, new) stream of 500 updates, digest
#: of the final ``live_rows()``, the charges -- recorded with
#: ``TableUpdater.apply`` still a loop of single ``update_rid`` calls.
RECORDED = {
    ("partsupp", 3): ("48f26acc9c96200f", "e77c420faa3c77e6"),
    ("partsupp", 17): ("de7f1e6436ddebc9", "c950328c59cf2b17"),
    ("partsupp", 101): ("5ef2db08e4cef963", "5e3ea03641dcb30b"),
    ("supplier", 3): ("5cbc57596ef045d9", "75bd274bce28d87d"),
    ("supplier", 17): ("41db7b112dc2e816", "9d96c4838a5fc497"),
    ("supplier", 101): ("99ddb4bec54eaef1", "c7b43835f315cb16"),
    ("nation", 3): ("0ef038370ced2f24", "82840235aded40b9"),
    ("nation", 17): ("6d7bcef563d64a51", "a1f28ed7b9e85a3d"),
    ("nation", 101): ("a80ff8087a16aa04", "238e799b51193c5c"),
}
RECORDED_CHARGES = {"row_writes": 1000, "index_maintains": 1000}
UPDATERS = {
    "partsupp": PartSuppCostUpdater,
    "supplier": SupplierNationUpdater,
    "nation": NationRegionUpdater,
}


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# 20 suppliers / 25 nations: a batch of 80 cannot avoid drawing a slot twice,
# so the in-batch chains are exercised, not just permitted.
@pytest.mark.parametrize("batch", (1, 7, 80))
@pytest.mark.parametrize("table_name, seed", sorted(RECORDED))
def test_update_streams_match_recorded_literals(table_name, seed, batch):
    db = Database()
    load_tpcr(db, scale=0.002)
    table = db.table(table_name)
    table.create_index(table.schema.names[0])
    start = table.current_lsn
    before = db.counter.snapshot()
    updater = UPDATERS[table_name](table, seed=seed)
    left = 500
    while left:
        k = min(batch, left)
        assert len(updater.apply(k)) == k
        left -= k
    olds, news = table.history.columns(start, table.current_lsn)
    after = db.counter.snapshot()
    assert (
        digest(list(zip(olds, news))), digest(list(table.live_rows()))
    ) == RECORDED[table_name, seed]
    assert {
        f: after[f] - before[f] for f in after if after[f] != before[f]
    } == RECORDED_CHARGES


def test_counter_is_charged_once_per_field_per_batch():
    class Counting(OperationCounter):
        calls = 0

        def charge(self, field_name, count=1):
            Counting.calls += 1
            super().charge(field_name, count)

    table = Table(
        "t", Schema.of(k=ColumnType.INT, a=ColumnType.INT), Counting()
    )
    table.create_index("k")
    table.create_index("a")
    Counting.calls = 0
    table.insert_rows([(i, i) for i in range(50)])
    table.update_rids(list(range(50)), {"a": list(range(50))})
    assert Counting.calls == 4  # row_writes + index_maintains, twice
    assert table.counter.row_writes == 50 + 100
    assert table.counter.index_maintains == 2 * (50 + 100)
