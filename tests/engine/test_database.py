"""Integration tests for QuerySpec execution through the Database facade."""

import warnings

import pytest

from repro.engine.database import Database
from repro.engine.errors import SchemaError
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QueryResult, QuerySpec
from repro.engine.types import ColumnType, Schema


def emp_dept_spec(**overrides):
    defaults = dict(
        base_alias="E",
        base_table="emp",
        joins=(JoinSpec("D", "dept", "E.deptno", "deptno"),),
    )
    defaults.update(overrides)
    return QuerySpec(**defaults)


class TestBasicExecution:
    def test_scan_only(self, toy_db):
        result = toy_db.execute(QuerySpec(base_alias="E", base_table="emp"))
        assert len(result) == 5
        assert "E.name" in result.columns

    def test_join(self, toy_db):
        result = toy_db.execute(emp_dept_spec())
        assert len(result) == 5

    def test_join_uses_index_when_available(self, toy_db):
        toy_db.table("dept").create_index("deptno")
        before = toy_db.counter.index_probes
        toy_db.execute(emp_dept_spec())
        assert toy_db.counter.index_probes > before

    def test_join_falls_back_to_hash(self, toy_db):
        before = toy_db.counter.hash_builds
        toy_db.execute(emp_dept_spec())
        assert toy_db.counter.hash_builds > before

    def test_filter_pushdown(self, toy_db):
        spec = emp_dept_spec(
            filters=(col("E.salary") > lit(180.0),)
        )
        result = toy_db.execute(spec)
        assert len(result) == 3

    def test_filter_on_joined_table(self, toy_db):
        spec = emp_dept_spec(filters=(col("D.dname") == lit("eng"),))
        result = toy_db.execute(spec)
        assert len(result) == 2

    def test_projection(self, toy_db):
        spec = emp_dept_spec(projection=("E.name", "D.dname"))
        result = toy_db.execute(spec)
        assert result.columns == ("E.name", "D.dname")
        assert ("alice", "eng") in result.rows

    def test_aggregate(self, toy_db):
        spec = emp_dept_spec(
            aggregate=AggregateSpec(func="min", value=col("E.salary")),
        )
        assert toy_db.execute(spec).scalar() == 100.0

    def test_grouped_aggregate(self, toy_db):
        spec = emp_dept_spec(
            aggregate=AggregateSpec(
                func="count", value=col("E.empno"), group_by=("D.dname",)
            ),
        )
        rows = sorted(toy_db.execute(spec).rows)
        assert rows == [("eng", 2), ("ops", 1), ("sales", 2)]

    def test_unresolvable_filter_rejected(self, toy_db):
        spec = emp_dept_spec(filters=(col("Z.q") == lit(1),))
        with pytest.raises(SchemaError, match="unknown columns"):
            toy_db.execute(spec)


class TestSnapshotsAndSubstitutions:
    def test_snapshot_lsns(self, toy_db):
        emp = toy_db.table("emp")
        lsn = emp.current_lsn
        emp.insert((6, "frank", 10, 500.0))
        spec = QuerySpec(base_alias="E", base_table="emp")
        assert len(toy_db.execute(spec)) == 6
        assert len(toy_db.execute(spec, snapshot_lsns={"E": lsn})) == 5

    def test_substitute_base(self, toy_db):
        spec = emp_dept_spec()
        delta = [(99, "zoe", 20, 1.0)]
        result = toy_db.execute(spec, substitutions={"E": delta})
        assert len(result) == 1
        assert result.rows[0][1] == "zoe"

    def test_substitute_inner(self, toy_db):
        spec = emp_dept_spec()
        delta = [(10, "newdept")]
        result = toy_db.execute(spec, substitutions={"D": delta})
        assert len(result) == 2  # only dept 10's two employees

    def test_empty_substitution_yields_nothing(self, toy_db):
        result = toy_db.execute(emp_dept_spec(), substitutions={"E": []})
        assert len(result) == 0


class TestQuerySpec:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(SchemaError, match="duplicate aliases"):
            QuerySpec(
                base_alias="E",
                base_table="emp",
                joins=(JoinSpec("E", "dept", "E.deptno", "deptno"),),
            )

    def test_qualified_right_column_rejected(self):
        with pytest.raises(SchemaError, match="bare column"):
            JoinSpec("D", "dept", "E.deptno", "D.deptno")

    def test_projection_and_aggregate_exclusive(self):
        with pytest.raises(SchemaError):
            QuerySpec(
                base_alias="E",
                base_table="emp",
                projection=("E.name",),
                aggregate=AggregateSpec(func="min", value=col("E.salary")),
            )

    def test_table_of(self):
        spec = emp_dept_spec()
        assert spec.table_of("E") == "emp"
        assert spec.table_of("D") == "dept"
        with pytest.raises(SchemaError):
            spec.table_of("Z")

    def test_aliases_order(self):
        assert emp_dept_spec().aliases == ("E", "D")


class TestRebasing:
    def test_rebase_identity(self):
        spec = emp_dept_spec()
        assert spec.rebased("E") is spec

    def test_rebase_swaps_direction(self, toy_db):
        spec = emp_dept_spec()
        rebased = spec.rebased("D")
        assert rebased.base_alias == "D"
        assert rebased.base_table == "dept"
        assert rebased.joins[0].alias == "E"
        # Same result either way.
        a = sorted(toy_db.execute(spec, substitutions={"D": [(10, "eng")]}).rows)
        b_rows = toy_db.execute(rebased, substitutions={"D": [(10, "eng")]}).rows
        # Column order differs after rebasing; compare as sets of dicts.
        layout_a = toy_db.execute(spec).columns
        layout_b = toy_db.execute(rebased).columns
        b = sorted(
            tuple(dict(zip(layout_b, row))[c] for c in layout_a)
            for row in b_rows
        )
        assert a == b

    def test_rebase_four_way_chain(self):
        spec = QuerySpec(
            base_alias="A",
            base_table="ta",
            joins=(
                JoinSpec("B", "tb", "A.x", "x"),
                JoinSpec("C", "tc", "B.y", "y"),
                JoinSpec("D", "td", "C.z", "z"),
            ),
        )
        rebased = spec.rebased("D")
        assert rebased.base_alias == "D"
        assert [j.alias for j in rebased.joins] == ["C", "B", "A"]
        # Rebasing twice returns to an equivalent rooting.
        back = rebased.rebased("A")
        assert back.base_alias == "A"
        assert {j.alias for j in back.joins} == {"B", "C", "D"}

    def test_rebase_unknown_alias(self):
        with pytest.raises(SchemaError, match="unknown alias"):
            emp_dept_spec().rebased("Z")


class TestQueryResult:
    def test_scalar_guard(self):
        result = QueryResult(rows=[(1,), (2,)], columns=("c",))
        with pytest.raises(SchemaError):
            result.scalar()

    def test_iteration(self):
        result = QueryResult(rows=[(1,), (2,)], columns=("c",))
        assert list(result) == [(1,), (2,)]


class TestDDL:
    def test_duplicate_table_rejected(self, toy_db):
        with pytest.raises(SchemaError, match="already exists"):
            toy_db.create_table("emp", Schema.of(x=ColumnType.INT))

    def test_unknown_table(self, toy_db):
        with pytest.raises(SchemaError, match="no table"):
            toy_db.table("ghost")

    def test_startup_charged_per_execute(self, toy_db):
        before = toy_db.counter.startups
        toy_db.execute(QuerySpec(base_alias="E", base_table="emp"))
        assert toy_db.counter.startups == before + 1


class TestWorkersArgument:
    """The worker pool is gone; the argument survives only so existing
    ``workers=0`` callers keep constructing."""

    @pytest.mark.parametrize("workers", (2, -1))
    def test_nonzero_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="worker pool was removed"):
            Database(workers=workers)

    @pytest.mark.parametrize("kwargs", ({}, {"workers": 0}, {"workers": None}))
    def test_serial_spellings_construct_and_execute(self, kwargs):
        db = Database(**kwargs)
        table = db.create_table("t", Schema.of(k=ColumnType.INT))
        table.insert((1,))
        assert db.execute(QuerySpec(base_alias="T", base_table="t")).rows == [
            (1,)
        ]
        assert not hasattr(db, "workers")


class TestBlockSizeArgument:
    """``block_size`` is one int, fixed at construction."""

    @pytest.mark.parametrize("block_size", (None, 0, -4, 2.5))
    def test_rejects_anything_but_a_positive_int(self, block_size):
        with pytest.raises(ValueError, match="block_size must be an int >= 1"):
            Database(block_size=block_size)

    def test_benchmark_spelling_constructs(self):
        assert Database(workers=0, block_size=256).block_size == 256

    def test_block_metrics_under_recording(self):
        """100 rows, filter keeps every 10th: ten 1-row blocks."""
        from repro import obs

        db = Database(block_size=10)
        table = db.create_table(
            "t", Schema.of(k=ColumnType.INT, tag=ColumnType.INT)
        )
        for i in range(100):
            table.insert((i, i % 10))
        spec = QuerySpec(
            base_alias="T", base_table="t", filters=(col("T.tag") == lit(0),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # low fill is no longer a warning
            with obs.recording() as rec:
                assert len(db.execute(spec)) == 10
        assert rec.registry.get("engine.block.blocks").value == 10
        assert rec.registry.get("engine.block.rows_out").value == 10
        fill = rec.registry.get("engine.block.fill")
        assert (fill.count, fill.max) == (1, 0.1)
