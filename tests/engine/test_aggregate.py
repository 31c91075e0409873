"""Unit tests for aggregate states and the Aggregate operator."""

import pytest

from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.aggregate import (
    Aggregate,
    AvgState,
    CountState,
    MaxState,
    MinState,
    SumState,
    make_aggregate_state,
)
from repro.engine.expr import col
from repro.engine.operators import SeqScan


class TestCountState:
    def test_basic(self):
        s = CountState()
        s.insert("anything")
        s.insert("else")
        assert s.result() == 2
        s.delete("anything")
        assert s.result() == 1
        assert not s.is_empty()

    def test_underflow(self):
        with pytest.raises(ExecutionError):
            CountState().delete("x")


class TestSumAndAvg:
    def test_sum(self):
        s = SumState()
        for v in (1.0, 2.0, 3.0):
            s.insert(v)
        assert s.result() == pytest.approx(6.0)
        s.delete(2.0)
        assert s.result() == pytest.approx(4.0)

    def test_sum_empty_is_none(self):
        s = SumState()
        assert s.result() is None
        s.insert(1.0)
        s.delete(1.0)
        assert s.result() is None

    def test_avg(self):
        s = AvgState()
        for v in (2.0, 4.0):
            s.insert(v)
        assert s.result() == pytest.approx(3.0)

    def test_sum_underflow(self):
        with pytest.raises(ExecutionError):
            SumState().delete(1.0)


class TestMinState:
    def test_insert_updates_min(self):
        s = MinState()
        s.insert(5.0)
        s.insert(3.0)
        s.insert(7.0)
        assert s.result() == 3.0

    def test_delete_nonmin_is_cheap(self):
        s = MinState()
        for v in (3.0, 5.0):
            s.insert(v)
        s.delete(5.0)
        assert s.result() == 3.0
        assert s.recomputations == 0

    def test_delete_min_triggers_recomputation(self):
        s = MinState()
        for v in (3.0, 5.0, 4.0):
            s.insert(v)
        s.delete(3.0)
        assert s.result() == 4.0
        assert s.recomputations == 1

    def test_duplicate_min_no_recompute_until_last_copy(self):
        s = MinState()
        s.insert(3.0)
        s.insert(3.0)
        s.delete(3.0)
        assert s.result() == 3.0
        assert s.recomputations == 0
        s.delete(3.0)
        assert s.result() is None
        assert s.recomputations == 1

    def test_underflow_on_absent_value(self):
        s = MinState()
        s.insert(3.0)
        with pytest.raises(ExecutionError):
            s.delete(4.0)

    def test_recompute_charges_cost(self):
        counter = OperationCounter()
        s = MinState(counter)
        for v in (1.0, 2.0, 3.0):
            s.insert(v)
        before = counter.sort_items
        s.delete(1.0)
        assert counter.sort_items > before


class TestMaxState:
    def test_mirrors_min(self):
        s = MaxState()
        for v in (3.0, 9.0, 5.0):
            s.insert(v)
        assert s.result() == 9.0
        s.delete(9.0)
        assert s.result() == 5.0
        assert s.recomputations == 1


class TestFactory:
    def test_known_functions(self):
        for name, cls in [
            ("count", CountState),
            ("sum", SumState),
            ("avg", AvgState),
            ("min", MinState),
            ("MAX", MaxState),
        ]:
            assert isinstance(make_aggregate_state(name), cls)

    def test_unknown_function(self):
        with pytest.raises(SchemaError, match="unknown aggregate"):
            make_aggregate_state("median")


class TestAggregateOperator:
    def test_scalar_min(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        agg = Aggregate(scan, "min", col("E.salary"))
        assert agg.rows() == [(100.0,)]

    def test_grouped_sum(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        agg = Aggregate(scan, "sum", col("E.salary"), group_by=["E.deptno"])
        assert sorted(agg.rows()) == [
            (10, 300.0),
            (20, 450.0),
            (30, 250.0),
        ]

    def test_scalar_over_empty_input_is_none(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(0), "E", toy_db.counter)  # empty snapshot
        agg = Aggregate(scan, "min", col("E.salary"))
        assert agg.rows() == [(None,)]

    def test_count_over_empty_input_is_zero(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(0), "E", toy_db.counter)
        agg = Aggregate(scan, "count", col("E.salary"))
        assert agg.rows() == [(0,)]

    def test_grouped_over_empty_input_has_no_rows(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(0), "E", toy_db.counter)
        agg = Aggregate(scan, "sum", col("E.salary"), group_by=["E.deptno"])
        assert agg.rows() == []
