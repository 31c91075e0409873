"""Unit tests for aggregate states and the Aggregate operator."""

from itertools import accumulate

import pytest

from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.aggregate import (
    Aggregate,
    AvgState,
    CountState,
    GroupStates,
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
        s.insert_many(["anything", "else"])
        assert s.result() == 2
        s.delete_many(["anything"])
        assert s.result() == 1
        assert not s.is_empty()

    def test_underflow(self):
        with pytest.raises(ExecutionError):
            CountState().delete_many(["x"])
        s = CountState()
        s.insert_many(["x"])
        with pytest.raises(ExecutionError):
            s.delete_many(["x", "x"])


class TestSumAndAvg:
    def test_sum(self):
        s = SumState()
        s.insert_many([1.0, 2.0, 3.0])
        assert s.result() == pytest.approx(6.0)
        s.delete_many([2.0])
        assert s.result() == pytest.approx(4.0)

    def test_sum_empty_is_none(self):
        s = SumState()
        assert s.result() is None
        s.insert_many([1.0])
        s.delete_many([1.0])
        assert s.result() is None

    def test_avg(self):
        s = AvgState()
        s.insert_many([2.0, 4.0])
        assert s.result() == pytest.approx(3.0)

    def test_sum_underflow(self):
        with pytest.raises(ExecutionError):
            SumState().delete_many([1.0])


class TestMinState:
    def test_insert_updates_min(self):
        s = MinState()
        s.insert_many([5.0, 3.0, 7.0])
        assert s.result() == 3.0

    def test_delete_nonmin_is_cheap(self):
        s = MinState()
        s.insert_many([3.0, 5.0])
        s.delete_many([5.0])
        assert s.result() == 3.0
        assert s.recomputations == 0

    def test_delete_min_triggers_recomputation(self):
        s = MinState()
        s.insert_many([3.0, 5.0, 4.0])
        s.delete_many([3.0])
        assert s.result() == 4.0
        assert s.recomputations == 1

    def test_duplicate_min_no_recompute_until_last_copy(self):
        s = MinState()
        s.insert_many([3.0, 3.0])
        s.delete_many([3.0])
        assert s.result() == 3.0
        assert s.recomputations == 0
        s.delete_many([3.0])
        assert s.result() is None
        assert s.recomputations == 1

    def test_underflow_on_absent_value(self):
        s = MinState()
        s.insert_many([3.0])
        with pytest.raises(ExecutionError):
            s.delete_many([4.0])

    def test_recompute_charges_cost(self):
        counter = OperationCounter()
        s = MinState(counter)
        s.insert_many([1.0, 2.0, 3.0])
        before = counter.sort_items
        s.delete_many([1.0])
        assert counter.sort_items > before


class TestMaxState:
    def test_mirrors_min(self):
        s = MaxState()
        s.insert_many([3.0, 9.0, 5.0])
        assert s.result() == 9.0
        s.delete_many([9.0])
        assert s.result() == 5.0
        assert s.recomputations == 1


class TestBatchedFoldChargesWhatItsValuesDo:
    """No charge moves: a state told its values a bucket at a time ends
    where the same values told one call each end, charges included."""

    #: (sign, bucket) steps over one group.  The second delete removes
    #: the last copy of the MIN (1.5) and then of the next MIN (2.0) in
    #: the middle of one bucket; the third removes the MAX (9.25) and its
    #: successor; the last empties the group.
    STEPS = [
        (+1, [4.0, 1.5, 9.25, 1.5, 0.1, 7.0]),
        (-1, [0.1, 1.5]),
        (+1, [2.0, 0.3, 8.5]),
        (-1, [0.3, 1.5, 2.0, 4.0]),
        (-1, [9.25, 8.5]),
        (+1, [0.7]),
        (-1, [7.0, 0.7]),
    ]

    @staticmethod
    def _run(func, steps):
        counter = OperationCounter()
        state = make_aggregate_state(func, counter)
        trace = []
        for sign, values in steps:
            (state.insert_many if sign > 0 else state.delete_many)(values)
            trace.append((state.result(), state.count))
        return trace, (
            counter.agg_updates,
            counter.sort_items,
            getattr(state, "recomputations", 0),
        )

    @pytest.mark.parametrize("func", ["count", "sum", "avg", "min", "max"])
    def test_bucketed_equals_one_call_per_value(self, func):
        one_each = [(sign, [v]) for sign, values in self.STEPS for v in values]
        bucketed, bucketed_charges = self._run(func, self.STEPS)
        single, single_charges = self._run(func, one_each)
        assert bucketed_charges == single_charges
        # Same state wherever the two runs have seen the same values
        # (bit-equal: float SUM folds in the same order), empty at the end.
        seen = accumulate(len(values) for __, values in self.STEPS)
        assert bucketed == [single[n - 1] for n in seen]
        assert bucketed[-1][1] == 0
        assert bucketed_charges[0] == len(one_each)
        if func in ("min", "max"):
            assert bucketed_charges[2] >= 3 and bucketed_charges[1] > 0

    def test_group_states_drop_a_group_when_it_empties(self):
        counter = OperationCounter()
        groups = GroupStates("min", counter)
        groups.insert({(1,): [3.0, 2.0], (2,): [5.0]})
        groups.delete({(1,): [2.0], (2,): [5.0]})
        assert {k: s.result() for k, s in groups.states.items()} == {(1,): 3.0}
        assert counter.agg_updates == 5
        with pytest.raises(ExecutionError, match="absent group"):
            groups.delete({(2,): [5.0]})


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
