"""Unit tests for scans, filters, projections, and the join operators."""

import pytest

from repro.engine.costmodel import OperationCounter
from repro.engine.errors import SchemaError
from repro.engine.expr import col, lit
from repro.engine.join import HashJoin, IndexNestedLoopJoin
from repro.engine.operators import (
    Filter,
    Project,
    RowSource,
    SeqScan,
    merged_layout,
)


@pytest.fixture
def emp(toy_db):
    return toy_db.table("emp")


@pytest.fixture
def dept(toy_db):
    return toy_db.table("dept")


class TestSeqScan:
    def test_yields_all_rows_with_alias_layout(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        rows = scan.rows()
        assert len(rows) == 5
        assert scan.layout["E.empno"] == 0
        assert scan.layout["E.salary"] == 3

    def test_charges_pages_and_cpu(self, toy_db, emp):
        before = toy_db.counter.snapshot()
        SeqScan(emp.snapshot(), "E", toy_db.counter).rows()
        after = toy_db.counter.snapshot()
        assert after["page_reads"] == before["page_reads"] + 1
        assert after["tuple_cpu"] == before["tuple_cpu"] + 5


class TestRowSource:
    def test_serves_in_memory_rows(self):
        counter = OperationCounter()
        src = RowSource([(1, "a"), (2, "b")], ("k", "v"), "D", counter)
        assert src.rows() == [(1, "a"), (2, "b")]
        assert src.layout == {"D.k": 0, "D.v": 1}
        assert len(src) == 2
        assert counter.page_reads == 0  # deltas live in memory

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            RowSource([], ("k", "k"), "D", OperationCounter())

    def test_wrong_width_row_is_named(self):
        rows = [(1, "a"), (2, "b"), (3,), (4, "d"), ()]
        with pytest.raises(
            SchemaError,
            match="substituted row 2 for 'D' has 1 values, expected 2",
        ):
            RowSource(rows, ("k", "v"), "D", OperationCounter())


class TestFilterAndProject:
    def test_filter_emits_only_kept_columns(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        full = Filter(scan, col("E.salary") > lit(100.0)).rows()
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        pruned = Filter(scan, col("E.salary") > lit(100.0), keep=["E.name"])
        assert pruned.layout == {"E.name": 0}
        name = scan.layout["E.name"]
        assert pruned.rows() == [(row[name],) for row in full]
        # Dropping every column still leaves the surviving rows counted.
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        assert Filter(scan, col("E.salary") > lit(100.0), keep=[]).rows() == (
            [()] * len(full)
        )

    def test_filter(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        high = Filter(scan, col("E.salary") >= lit(200.0))
        names = sorted(row[1] for row in high.rows())
        assert names == ["bob", "carol", "erin"]

    def test_project_reorders(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        proj = Project(scan, ["E.salary", "E.name"])
        rows = proj.rows()
        assert rows[0] == (100.0, "alice")
        assert proj.layout == {"E.salary": 0, "E.name": 1}

    def test_project_unknown_column(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        with pytest.raises(SchemaError):
            Project(scan, ["E.nope"])

    def test_project_duplicate_rejected(self, toy_db, emp):
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        with pytest.raises(SchemaError, match="duplicate"):
            Project(scan, ["E.name", "E.name"])


class TestMergedLayout:
    def test_concatenates(self):
        left = {"A.x": 0, "A.y": 1}
        right = {"B.z": 0}
        assert merged_layout(left, right) == {"A.x": 0, "A.y": 1, "B.z": 2}

    def test_overlap_rejected(self):
        with pytest.raises(SchemaError, match="share"):
            merged_layout({"A.x": 0}, {"A.x": 0})


class TestIndexNestedLoopJoin:
    def test_join_via_index(self, toy_db, emp, dept):
        dept.create_index("deptno")
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        join = IndexNestedLoopJoin(
            left, dept.snapshot(), "D", "E.deptno", "deptno"
        )
        rows = join.rows()
        assert len(rows) == 5
        names = {
            (row[join.layout["E.name"]], row[join.layout["D.dname"]])
            for row in rows
        }
        assert ("alice", "eng") in names
        assert ("erin", "ops") in names

    def test_requires_index(self, toy_db, emp, dept):
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        with pytest.raises(SchemaError, match="needs an index"):
            IndexNestedLoopJoin(
                left, dept.snapshot(), "D", "E.deptno", "deptno"
            )

    def test_charges_one_probe_per_outer_tuple(self, toy_db, emp, dept):
        dept.create_index("deptno")
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        before = toy_db.counter.index_probes
        IndexNestedLoopJoin(
            left, dept.snapshot(), "D", "E.deptno", "deptno"
        ).rows()
        assert toy_db.counter.index_probes == before + 5


class TestHashJoin:
    def test_equi_join(self, toy_db, emp, dept):
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        right = SeqScan(dept.snapshot(), "D", toy_db.counter)
        join = HashJoin(left, right, "E.deptno", "D.deptno")
        assert len(join.rows()) == 5

    def test_build_cost_paid_on_first_pull(self, toy_db, emp, dept):
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        right = SeqScan(dept.snapshot(), "D", toy_db.counter)
        before = toy_db.counter.snapshot()
        join = HashJoin(left, right, "E.deptno", "D.deptno")
        assert toy_db.counter.snapshot() == before  # constructing is free
        next(join.blocks(64))
        assert toy_db.counter.hash_builds == before["hash_builds"] + 3

    def test_dangling_keys_produce_nothing(self, toy_db, emp, dept):
        emp.insert((9, "zed", 99, 1.0))  # department 99 doesn't exist
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        right = SeqScan(dept.snapshot(), "D", toy_db.counter)
        join = HashJoin(left, right, "E.deptno", "D.deptno")
        assert len(join.rows()) == 5  # zed joins nothing

    def test_agrees_with_nested_loop(self, toy_db, emp, dept):
        left = SeqScan(emp.snapshot(), "E", toy_db.counter)
        right = SeqScan(dept.snapshot(), "D", toy_db.counter)
        join = HashJoin(left, right, "E.deptno", "D.deptno")
        e, d = left.layout["E.deptno"], right.layout["D.deptno"]
        nl_rows = [
            lrow + rrow
            for lrow in emp.snapshot().row_list()
            for rrow in dept.snapshot().row_list()
            if lrow[e] == rrow[d]
        ]
        assert sorted(join.rows()) == sorted(nl_rows)


class TestProbeBlockColumnarFastPath:
    """gather_join(): the one probe kernel of both equi-joins assembles
    its output column by column and never transposes its input."""

    LAYOUT = {"L.k": 0, "L.v": 1}
    OUT = {"L.k": 0, "L.v": 1, "R.k": 2, "R.w": 3}
    TABLE = {1: [(1, "a")], 2: [(2, "b"), (2, "c")]}

    def probe(self, block, left_kept=(0, 1), right_kept=(0, 1), out=None):
        from repro.engine.join import gather_join

        hits = [self.TABLE.get(key, ()) for key in block.column(0)]
        return gather_join(block, hits, left_kept, right_kept, out or self.OUT)

    def test_columnar_input_is_never_transposed(self):
        from repro.engine.block import RowBlock

        block = RowBlock.from_columns([[1, 2, 3], [10, 20, 30]], self.LAYOUT)
        joined = self.probe(block)
        # The source block's row view was never materialized...
        assert block._rows is None
        # ...and the output stays column-major (no row view either).
        assert joined._rows is None
        assert joined.rows() == [
            (1, 10, 1, "a"),
            (2, 20, 2, "b"),
            (2, 20, 2, "c"),
        ]

    def test_row_major_input_uses_row_path(self):
        """A row-major block stays row-major: the kernel reads it through
        ``column()``, which extracts only the columns asked for."""
        from repro.engine.block import RowBlock

        block = RowBlock.from_rows([(2, 20), (9, 90)], self.LAYOUT)
        joined = self.probe(
            block, left_kept=(1,), right_kept=(1,), out={"L.v": 0, "R.w": 1}
        )
        assert joined.rows() == [(20, "b"), (20, "c")]
        # The key column was read for the probe, L.v for the output.
        assert block._columns is None and set(block._col_cache) == {0, 1}
        assert self.probe(block).rows() == [(2, 20, 2, "b"), (2, 20, 2, "c")]

    def test_every_probe_matching_once_reuses_the_left_columns(self):
        from repro.engine.block import RowBlock

        columns = [[1, 1], [10, 11]]
        block = RowBlock.from_columns(columns, self.LAYOUT)
        joined = self.probe(block)
        assert joined.column(1) is columns[1]
        assert joined.rows() == [(1, 10, 1, "a"), (1, 11, 1, "a")]

    def test_no_matches_returns_none(self):
        from repro.engine.block import RowBlock

        block = RowBlock.from_columns([[7, 8], [70, 80]], self.LAYOUT)
        assert self.probe(block) is None
        assert block._rows is None

    def test_hash_join_blocks_keeps_projected_input_columnar(
        self, toy_db, emp, dept
    ):
        """End-to-end: a Project child emits column-major blocks; the
        join's blocked probe must consume them without transposing."""
        seen: list = []

        class Spy(Project):
            def blocks(self, block_size):
                for block in super().blocks(block_size):
                    seen.append(block)
                    yield block

        left = Spy(
            SeqScan(emp.snapshot(), "E", toy_db.counter),
            ["E.name", "E.deptno"],
        )
        right = SeqScan(dept.snapshot(), "D", toy_db.counter)
        join = HashJoin(left, right, "E.deptno", "D.deptno")
        rows = [row for block in join.blocks(4) for row in block.rows()]
        assert len(rows) == 5
        assert seen and all(block._rows is None for block in seen)
