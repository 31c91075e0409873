"""Tests for ORDER BY / LIMIT, EXPLAIN, vacuum, and .tbl import/export."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import col, lit
from repro.engine.io import (
    dump_database,
    dump_table,
    load_database,
    load_table,
)
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


class TestVacuum:
    def test_reclaims_dead_versions(self, toy_db):
        emp = toy_db.table("emp")
        emp.create_index("deptno")
        for rid in list(emp.find_rids(lambda r: r[2] == 10)):
            emp.update_rid(rid, {"salary": 1.0})
        assert emp.version_count() == 7  # 5 original + 2 new versions
        reclaimed = emp.vacuum()
        assert reclaimed == 2
        assert emp.version_count() == 5
        assert emp.live_count == 5

    def test_charges_a_write_per_survivor_and_a_maintain_per_index(
        self, toy_db
    ):
        emp = toy_db.table("emp")
        emp.create_index("deptno")
        emp.create_index("name")
        for rid in emp.find_rids(lambda r: r[2] == 10):
            emp.update_rid(rid, {"salary": 1.0})
        before = emp.counter.snapshot()
        assert emp.vacuum() == 2
        # Five versions survive; each is rewritten and re-indexed twice.
        assert emp.counter.since(before) == {
            "row_writes": 5, "index_maintains": 10,
        }

    def test_index_still_correct_after_vacuum(self, toy_db):
        emp = toy_db.table("emp")
        emp.create_index("deptno")
        rid = emp.find_rids(lambda r: r[1] == "alice")[0]
        emp.update_rid(rid, {"deptno": 30})
        emp.vacuum()
        snap = emp.snapshot()
        names = {row[1] for row in snap.lookup("deptno", 30)}
        assert names == {"alice", "erin"}
        assert all(
            row[1] != "alice" for row in snap.lookup("deptno", 10)
        )

    def test_watermark_preserves_older_snapshots(self, toy_db):
        emp = toy_db.table("emp")
        rid = emp.find_rids(lambda r: r[1] == "alice")[0]
        lsn = emp.current_lsn
        emp.update_rid(rid, {"salary": 1.0})
        # Keep versions visible at `lsn` readable.
        reclaimed = emp.vacuum(before_lsn=lsn)
        assert reclaimed == 0
        old = emp.snapshot(lsn)
        assert any(row[1] == "alice" and row[3] == 100.0 for row in old.rows())

    def test_snapshot_below_watermark_raises(self):
        """Once versions are reclaimed, an LSN that saw them is refused --
        not answered with rows missing."""
        db = Database()
        t = db.create_table("t", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
        t.insert((1, 10))
        t.insert((2, 20))
        t.update_rid(0, {"v": 11})
        assert sorted(t.snapshot(2).row_list()) == [(1, 10), (2, 20)]
        assert t.vacuum() == 1
        with pytest.raises(ExecutionError, match="vacuum watermark 3"):
            t.snapshot(2)
        assert sorted(t.snapshot(3).row_list()) == [(1, 11), (2, 20)]
        # A later, lower watermark never re-admits the reclaimed LSNs.
        t.update_rid(1, {"v": 12})
        t.vacuum(before_lsn=1)
        with pytest.raises(ExecutionError, match="vacuum watermark 3"):
            t.snapshot(2)

    def test_snapshot_held_across_vacuum_raises_on_an_unread_read(self):
        """A snapshot handed out before a vacuum that reclaimed versions
        it sees refuses every read it had not made -- rows, an index
        lookup, a build-side bucket -- and keeps answering what it had."""
        db = Database()
        t = db.create_table("t", Schema.of(k=ColumnType.INT, v=ColumnType.STR))
        t.create_index("k")
        t.insert_rows([(1, "a"), (1, "b"), (2, "c")])
        held = t.snapshot()
        assert held.lookup("k", 2) == [(2, "c")]
        t.update_rids([0], {"v": ["z"]})
        t.delete_rids([1])
        assert t.vacuum() == 2
        with pytest.raises(ExecutionError, match="vacuum watermark 5"):
            t.snapshot(3)
        with pytest.raises(ExecutionError, match="vacuum watermark 5"):
            held.row_list()
        with pytest.raises(ExecutionError, match="vacuum watermark 5"):
            held.lookup("k", 1)
        assert held.lookup("k", 2) == [(2, "c")]

    def test_rolled_side_probed_after_vacuum_raises(self):
        db = Database()
        t = db.create_table("t", Schema.of(k=ColumnType.INT, v=ColumnType.STR))
        t.insert_rows([(1, "a"), (2, "b")])
        first = t.snapshot().keyed("k")
        assert (first[1], first[2]) == ([(1, "a")], [(2, "b")])
        t.update_rids([0, 1], {"v": ["y", "z"]})
        held = t.snapshot()
        side = held.keyed("k")
        assert side == {}  # rolled: both keys were touched
        assert side[2] == [(2, "z")]
        t.update_rids([2], {"v": ["w"]})
        assert t.vacuum() == 3
        with pytest.raises(ExecutionError, match="vacuum watermark 5"):
            side[1]
        assert side[2] == [(2, "z")]

    def test_vacuum_drops_the_retained_snapshot(self, toy_db):
        emp = toy_db.table("emp")
        rid = emp.find_rids(lambda r: r[1] == "alice")[0]
        emp.update_rid(rid, {"salary": 1.0})
        held = emp.snapshot()
        kept = held.keyed("deptno")
        assert [row[1] for row in kept[10]] == ["bob", "alice"]
        assert emp.vacuum() == 1
        fresh = emp.snapshot()
        assert fresh is not held
        assert fresh._keyed == {}
        assert fresh.keyed("deptno")[10] == kept[10]

    def test_vacuum_noop_on_clean_table(self, toy_db):
        assert toy_db.table("emp").vacuum() == 0

    def test_bad_watermark(self, toy_db):
        with pytest.raises(ExecutionError):
            toy_db.table("emp").vacuum(before_lsn=10_000)


class TestTblIO:
    def test_roundtrip(self, toy_db, tmp_path):
        emp = toy_db.table("emp")
        path = tmp_path / "emp.tbl"
        written = dump_table(emp, path)
        assert written == 5
        first_line = path.read_text().splitlines()[0]
        assert first_line.endswith("|")
        assert first_line.count("|") == 4

        db2 = Database()
        loaded = load_table(db2, "emp", emp.schema, path)
        assert sorted(loaded.live_rows()) == sorted(emp.live_rows())

    def test_dump_load_database(self, toy_db, tmp_path):
        counts = dump_database(toy_db, tmp_path)
        assert counts == {"emp": 5, "dept": 3}
        db2 = Database()
        schemas = {
            "emp": toy_db.table("emp").schema,
            "dept": toy_db.table("dept").schema,
        }
        loaded = load_database(db2, tmp_path, schemas)
        assert loaded == counts

    def test_tpcr_shape_compatible(self, tmp_path):
        """Generated TPC-R data round-trips through dbgen's format."""
        from repro.tpcr.gen import load_tpcr
        from repro.tpcr.schema import TPCR_SCHEMAS

        db = Database()
        load_tpcr(db, scale=0.002, tables=("region", "nation", "supplier"))
        dump_database(db, tmp_path)
        db2 = Database()
        load_database(
            db2,
            tmp_path,
            {name: TPCR_SCHEMAS[name] for name in ("region", "nation", "supplier")},
        )
        assert sorted(db2.table("supplier").live_rows()) == sorted(
            db.table("supplier").live_rows()
        )

    def test_pipe_in_string_rejected(self, tmp_path):
        db = Database()
        t = db.create_table("t", Schema.of(s=ColumnType.STR))
        t.insert(("has|pipe",))
        with pytest.raises(ExecutionError, match="no\\s+escaping"):
            dump_table(t, tmp_path / "t.tbl")

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("1|ok|\nnot-an-int|bad|\n")
        db = Database()
        schema = Schema.of(k=ColumnType.INT, v=ColumnType.STR)
        with pytest.raises(ExecutionError, match=":2:"):
            load_table(db, "t", schema, path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("1|\n")
        db = Database()
        schema = Schema.of(k=ColumnType.INT, v=ColumnType.STR)
        with pytest.raises(ExecutionError, match="fields"):
            load_table(db, "t", schema, path)

    def test_float_precision_roundtrip(self, tmp_path):
        db = Database()
        t = db.create_table("t", Schema.of(x=ColumnType.FLOAT))
        t.insert((0.1 + 0.2,))
        dump_table(t, tmp_path / "t.tbl")
        db2 = Database()
        loaded = load_table(db2, "t", t.schema, tmp_path / "t.tbl")
        assert list(loaded.live_rows()) == [(0.1 + 0.2,)]


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
