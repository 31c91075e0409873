"""Tests for ORDER BY / LIMIT, EXPLAIN, .tbl export and spec keys."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import col, lit
from repro.engine.io import dump_database, dump_table
from repro.engine.query import (
    AggregateSpec,
    JoinSpec,
    OrderSpec,
    QuerySpec,
)
from repro.engine.types import ColumnType, Schema


class TestOrderByAndLimit:
    def test_order_ascending(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            projection=("E.name", "E.salary"),
            order_by=(OrderSpec("E.salary"),),
        )
        rows = toy_db.execute(spec).rows
        salaries = [s for __, s in rows]
        assert salaries == sorted(salaries)

    def test_order_descending(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            projection=("E.name", "E.salary"),
            order_by=(OrderSpec("E.salary", descending=True),),
        )
        rows = toy_db.execute(spec).rows
        assert rows[0] == ("carol", 300.0)  # highest salary

    def test_order_key_must_be_in_output(self, toy_db):
        # ORDER BY applies to the final output; keys dropped by the
        # projection are rejected (documented dialect restriction).
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            projection=("E.name",),
            order_by=(OrderSpec("E.salary"),),
        )
        with pytest.raises(SchemaError, match="unknown column"):
            toy_db.execute(spec)

    def test_multi_key_order_stable(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            projection=("E.deptno", "E.salary"),
            order_by=(
                OrderSpec("E.deptno"),
                OrderSpec("E.salary", descending=True),
            ),
        )
        rows = toy_db.execute(spec).rows
        assert rows == [
            (10, 200.0), (10, 100.0), (20, 300.0), (20, 150.0), (30, 250.0),
        ]

    def test_limit(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            order_by=(OrderSpec("E.salary"),),
            limit=2,
        )
        assert len(toy_db.execute(spec)) == 2

    def test_limit_zero(self, toy_db):
        spec = QuerySpec(base_alias="E", base_table="emp", limit=0)
        assert len(toy_db.execute(spec)) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(SchemaError):
            QuerySpec(base_alias="E", base_table="emp", limit=-1)

    def test_order_on_aggregate_output(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            aggregate=AggregateSpec(
                func="sum", value=col("E.salary"), group_by=("E.deptno",)
            ),
            order_by=(OrderSpec("sum", descending=True),),
            limit=1,
        )
        rows = toy_db.execute(spec).rows
        assert rows == [(20, 450.0)]

    def test_order_charges_sort_cost(self, toy_db):
        before = toy_db.counter.sort_items
        toy_db.execute(
            QuerySpec(
                base_alias="E",
                base_table="emp",
                order_by=(OrderSpec("E.salary"),),
            )
        )
        assert toy_db.counter.sort_items == before + 5

    def test_rebased_preserves_order_and_limit(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
            order_by=(OrderSpec("E.salary"),),
            limit=3,
        )
        rebased = spec.rebased("D")
        assert rebased.order_by == spec.order_by
        assert rebased.limit == 3


class TestExplain:
    def test_mentions_access_paths(self, toy_db):
        toy_db.table("dept").create_index("deptno")
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
            filters=(col("E.salary") > lit(100.0),),
            aggregate=AggregateSpec(func="min", value=col("E.salary")),
        )
        text = toy_db.explain(spec)
        assert "SeqScan(emp AS E" in text
        assert "IndexNestedLoopJoin(dept AS D" in text
        assert "Filter" in text
        assert "Aggregate(MIN" in text

    def test_hash_join_without_index(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
        )
        text = toy_db.explain(spec)
        assert "HashJoin(probe)" in text
        assert "Build(SeqScan(dept AS D))" in text

    def test_substitution_shown_as_row_source(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
        )
        text = toy_db.explain(spec, substitutions={"E": [(9, "x", 10, 1.0)]})
        assert "RowSource(E, 1 rows)" in text

    def test_explain_costs_nothing(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
        )
        before = toy_db.counter.elapsed_ms()
        toy_db.explain(spec)
        assert toy_db.counter.elapsed_ms() == before

    def test_order_and_limit_shown(self, toy_db):
        spec = QuerySpec(
            base_alias="E",
            base_table="emp",
            order_by=(OrderSpec("E.salary", descending=True),),
            limit=3,
        )
        text = toy_db.explain(spec)
        assert "Sort(E.salary DESC)" in text
        assert "Limit(3)" in text


class TestTblIO:
    @staticmethod
    def fields(path) -> list[list[str]]:
        """The ``|``-separated fields of each line; each line ends in one."""
        lines = path.read_text().splitlines()
        assert all(line.endswith("|") for line in lines)
        return [line[:-1].split("|") for line in lines]

    def test_roundtrip(self, toy_db, tmp_path):
        emp = toy_db.table("emp")
        path = tmp_path / "emp.tbl"
        written = dump_table(emp, path)
        assert written == 5
        assert self.fields(path) == [
            [str(value) for value in row] for row in emp.live_rows()
        ]

    def test_dump_load_database(self, toy_db, tmp_path):
        counts = dump_database(toy_db, tmp_path)
        assert counts == {"emp": 5, "dept": 3}
        for name, count in counts.items():
            assert len(self.fields(tmp_path / f"{name}.tbl")) == count

    def test_tpcr_shape_compatible(self, tmp_path):
        """Generated TPC-R data is written in dbgen's format: one line a
        row, every column a ``|``-terminated field, in schema order."""
        from repro.tpcr.gen import load_tpcr

        db = Database()
        load_tpcr(db, scale=0.002, tables=("region", "nation", "supplier"))
        dump_database(db, tmp_path)
        supplier = db.table("supplier")
        rows = self.fields(tmp_path / "supplier.tbl")
        assert {len(row) for row in rows} == {supplier.schema.width}
        assert rows == [
            [str(value) for value in row] for row in supplier.live_rows()
        ]

    def test_pipe_in_string_rejected(self, tmp_path):
        db = Database()
        t = db.create_table("t", Schema.of(s=ColumnType.STR))
        t.insert(("has|pipe",))
        with pytest.raises(ExecutionError, match="no\\s+escaping"):
            dump_table(t, tmp_path / "t.tbl")

    def test_float_precision_roundtrip(self, tmp_path):
        db = Database()
        t = db.create_table("t", Schema.of(x=ColumnType.FLOAT))
        t.insert((0.1 + 0.2,))
        dump_table(t, tmp_path / "t.tbl")
        [[text]] = self.fields(tmp_path / "t.tbl")
        assert text == "0.30000000000000004"
        assert float(text) == 0.1 + 0.2


class TestSpecKey:
    def spec(self, **changes):
        fields = dict(
            base_alias="E",
            base_table="emp",
            joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
            filters=(col("E.salary") > lit(100), col("D.dname") == lit("ops")),
            aggregate=AggregateSpec(
                func="sum", value=col("E.salary"), group_by=("D.dname",)
            ),
        )
        fields.update(changes)
        return QuerySpec(**fields)

    def test_separately_built_equal_specs_have_equal_keys(self):
        assert self.spec().key() == self.spec().key()
        assert hash(self.spec().key()) == hash(self.spec().key())

    def test_dataclass_equality_cannot_tell_filters_apart(self):
        # Why key() exists: == on the filters builds a truthy comparison.
        other = self.spec(filters=(col("E.salary") > lit(999),))
        assert other.key() != self.spec().key()

    @pytest.mark.parametrize("changes", [
        dict(base_alias="X", joins=(JoinSpec("D", "dept", "X.deptno", "deptno"),)),
        dict(base_table="emp2"),
        dict(joins=()),
        dict(filters=(col("E.salary") > lit(100.0), col("D.dname") == lit("ops"))),
        dict(filters=(col("D.dname") == lit("ops"), col("E.salary") > lit(100))),
        dict(aggregate=AggregateSpec(
            func="min", value=col("E.salary"), group_by=("D.dname",))),
        dict(aggregate=AggregateSpec(
            func="sum", value=col("E.empno"), group_by=("D.dname",))),
        dict(aggregate=AggregateSpec(func="sum", value=col("E.salary"))),
        dict(aggregate=None, projection=("E.salary",)),
        dict(aggregate=None, reads=("E.salary",)),
        dict(aggregate=None, distinct=True),
        dict(limit=3),
        dict(order_by=(OrderSpec("D.dname"),)),
    ])
    def test_every_field_is_part_of_the_key(self, changes):
        assert self.spec(**changes).key() != self.spec().key()

    def test_list_valued_fields_still_key(self):
        listed = self.spec(
            joins=[JoinSpec("D", "dept", "E.deptno", "deptno")],
            aggregate=AggregateSpec(
                func="sum", value=col("E.salary"), group_by=["D.dname"]
            ),
        )
        assert listed.key() == self.spec().key()

    def test_aliases_worked_out_once(self):
        spec = self.spec()
        assert spec.aliases == ("E", "D")
        assert spec.aliases is spec.aliases
        assert spec.rebased("D").aliases == ("D", "E")
