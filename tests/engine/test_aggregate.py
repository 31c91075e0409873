"""Unit tests for the grouped aggregate fold and the Aggregate operator."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.engine.aggregate import Aggregate, GroupStates
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import col
from repro.engine.operators import SeqScan
from repro.engine.query import AggregateSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView

FUNCS = ["count", "sum", "avg", "min", "max"]


def fold(func, counter=None):
    return GroupStates(func, counter if counter is not None else OperationCounter())


class TestCountState:
    def test_basic(self):
        g = fold("count")
        g.insert({(): ["anything", "else"]})
        assert g.result(()) == 2
        g.delete({(): ["anything"]})
        assert g.result(()) == 1
        assert g.counts == {(): 1}

    def test_underflow(self):
        with pytest.raises(ExecutionError, match="absent group"):
            fold("count").delete({(): ["x"]})
        g = fold("count")
        g.insert({(): ["x"]})
        with pytest.raises(ExecutionError, match="COUNT underflow"):
            g.delete({(): ["x", "x"]})


class TestSumAndAvg:
    def test_sum(self):
        g = fold("sum")
        g.insert({(): [1.0, 2.0, 3.0]})
        assert g.result(()) == pytest.approx(6.0)
        g.delete({(): [2.0]})
        assert g.result(()) == pytest.approx(4.0)

    def test_sum_empty_is_none(self):
        g = fold("sum")
        assert g.result(()) is None
        g.insert({(): [1.0]})
        g.delete({(): [1.0]})
        assert g.result(()) is None
        assert g.sums == {} and g.counts == {}

    def test_avg(self):
        g = fold("avg")
        g.insert({(1,): [2.0, 4.0], (2,): [5.0]})
        assert g.result((1,)) == pytest.approx(3.0)
        assert g.results() == {(1,): 3.0, (2,): 5.0}
        assert g.result((3,)) is None

    def test_sum_underflow(self):
        with pytest.raises(ExecutionError, match="absent group"):
            fold("sum").delete({(): [1.0]})
        g = fold("sum")
        g.insert({(): [1.0]})
        with pytest.raises(ExecutionError, match="SUM underflow"):
            g.delete({(): [1.0, 1.0]})


class TestMinState:
    def test_insert_updates_min(self):
        g = fold("min")
        g.insert({(): [5.0, 3.0, 7.0]})
        assert g.result(()) == 3.0

    def test_delete_nonmin_is_cheap(self):
        g = fold("min")
        g.insert({(): [3.0, 5.0]})
        g.delete({(): [5.0]})
        assert g.result(()) == 3.0
        assert g.recomputations == 0

    def test_delete_min_triggers_recomputation(self):
        g = fold("min")
        g.insert({(): [3.0, 5.0, 4.0]})
        g.delete({(): [3.0]})
        assert g.result(()) == 4.0
        assert g.recomputations == 1

    def test_duplicate_min_no_recompute_until_last_copy(self):
        g = fold("min")
        g.insert({(): [3.0, 3.0]})
        g.delete({(): [3.0]})
        assert g.result(()) == 3.0
        assert g.recomputations == 0
        g.delete({(): [3.0]})
        assert g.result(()) is None
        assert g.recomputations == 1
        assert g.multisets == {} and g.extrema == {}

    def test_underflow_on_absent_value(self):
        g = fold("min")
        g.insert({(): [3.0]})
        with pytest.raises(ExecutionError, match="underflow"):
            g.delete({(): [4.0]})

    def test_recompute_charges_cost(self):
        counter = OperationCounter()
        g = fold("min", counter)
        g.insert({(): [1.0, 2.0, 3.0]})
        before = counter.sort_items
        g.delete({(): [1.0]})
        assert counter.sort_items - before == 2  # the two survivors


class TestMaxState:
    def test_mirrors_min(self):
        g = fold("max")
        g.insert({(): [3.0, 9.0, 5.0]})
        assert g.result(()) == 9.0
        g.delete({(): [9.0]})
        assert g.result(()) == 5.0
        assert g.recomputations == 1


class TestBatchedFoldChargesWhatItsValuesDo:
    """No charge moves: a fold told its values a bucket at a time ends
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
        groups = GroupStates(func, counter)
        trace = []
        for sign, values in steps:
            (groups.insert if sign > 0 else groups.delete)({(7,): values})
            if func in ("min", "max"):
                count = sum(groups.multisets.get((7,), {}).values())
            else:
                count = groups.counts.get((7,), 0)
            trace.append((groups.result((7,)), count))
        return trace, (
            counter.agg_updates,
            counter.sort_items,
            groups.recomputations,
        )

    @pytest.mark.parametrize("func", FUNCS)
    def test_bucketed_equals_one_call_per_value(self, func):
        one_each = [(sign, [v]) for sign, values in self.STEPS for v in values]
        bucketed, bucketed_charges = self._run(func, self.STEPS)
        single, single_charges = self._run(func, one_each)
        assert bucketed_charges == single_charges
        # Same value and count wherever the two runs have seen the same
        # values (bit-equal: float SUM folds in the same order), gone at
        # the end.
        seen = accumulate(len(values) for __, values in self.STEPS)
        assert bucketed == [single[n - 1] for n in seen]
        assert bucketed[-1] == (None, 0)
        assert bucketed_charges[0] == len(one_each)
        if func in ("min", "max"):
            assert bucketed_charges[2] >= 3 and bucketed_charges[1] > 0
        else:
            assert bucketed_charges[1:] == (0, 0)

    def test_group_states_drop_a_group_when_it_empties(self):
        for func in FUNCS:
            counter = OperationCounter()
            groups = GroupStates(func, counter)
            groups.insert({(1,): [3.0, 2.0], (2,): [5.0]})
            groups.delete({(1,): [2.0], (2,): [5.0]})
            assert groups.results() == {(1,): 1 if func == "count" else 3.0}
            for kept in (groups.counts, groups.sums, groups.multisets,
                         groups.extrema):
                assert (2,) not in kept
            assert counter.agg_updates == 5
            with pytest.raises(ExecutionError, match="absent group"):
                groups.delete({(2,): [5.0]})

    @pytest.mark.parametrize("func", FUNCS)
    def test_a_multi_group_call_charges_once(self, func):
        counter = OperationCounter()
        calls = []
        charge = counter.charge

        def recording(field, count=1):
            calls.append((field, count))
            charge(field, count)

        counter.charge = recording
        groups = GroupStates(func, counter)
        groups.insert({(1,): [1.0, 2.0], (2,): [3.0], (3,): [4.0, 5.0]})
        groups.delete({(1,): [2.0], (3,): [5.0, 4.0]})
        assert [c for c in calls if c[0] == "agg_updates"] == [
            ("agg_updates", 5), ("agg_updates", 3)
        ]


class TestErrorPathsChargeWhatTheyFolded:
    """A failing delete charges the groups it got through, and the
    failing group's values when it underflows; an absent group charges
    nothing for itself.  (The per-group states these kernels replace
    charged a group's values before folding them.)"""

    @staticmethod
    def _loaded(func):
        counter = OperationCounter()
        groups = GroupStates(func, counter)
        groups.insert({(1,): [1.0, 2.0], (2,): [3.0]})
        return groups, counter

    @pytest.mark.parametrize("func", FUNCS)
    def test_underflow_includes_the_failing_groups_values(self, func):
        groups, counter = self._loaded(func)
        before = counter.agg_updates
        with pytest.raises(ExecutionError, match="underflow"):
            groups.delete({(1,): [2.0], (2,): [3.0, 3.0], (1, 1): [9.0]})
        assert counter.agg_updates - before == 3

    @pytest.mark.parametrize("func", FUNCS)
    def test_an_absent_group_charges_nothing_for_itself(self, func):
        groups, counter = self._loaded(func)
        before = counter.agg_updates
        with pytest.raises(ExecutionError, match="absent group"):
            groups.delete({(1,): [1.0], (9,): [5.0, 6.0], (2,): [3.0]})
        assert counter.agg_updates - before == 1
        assert groups.result((2,)) is not None


#: Values whose sums round differently in different orders, with repeats.
VALUES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.5, 2.0, 9.25, 1e16, -3.3])
KEYS = st.sampled_from([(0,), (1,), (2,), (3,)])


class _Oracle:
    """One aggregate by group as plain Python: each group's values in a
    list, a running SUM added and taken one value at a time, and the
    extremum found by a scan."""

    def __init__(self, func):
        self.func = func
        self.values: dict[tuple, list] = {}
        self.totals: dict[tuple, float] = {}
        self.agg_updates = self.sort_items = self.recomputations = 0

    def insert(self, buckets):
        for key, values in buckets.items():
            self.agg_updates += len(values)
            self.values.setdefault(key, []).extend(values)
            total = self.totals.get(key, 0.0)
            for value in values:
                total += value
            self.totals[key] = total

    def delete(self, buckets):
        pick = min if self.func == "min" else max
        for key, values in buckets.items():
            self.agg_updates += len(values)
            held = self.values[key]
            for value in values:
                extremum = pick(held)
                held.remove(value)
                self.totals[key] -= value
                if self.func in ("min", "max") and value not in held \
                        and value == extremum:
                    self.recomputations += 1
                    self.sort_items += max(1, len(set(held)))
            if not held:
                del self.values[key], self.totals[key]

    def results(self):
        func = self.func
        out = {}
        for key, held in self.values.items():
            if func == "count":
                out[key] = len(held)
            elif func == "sum":
                out[key] = self.totals[key]
            elif func == "avg":
                out[key] = self.totals[key] / len(held)
            else:
                out[key] = min(held) if func == "min" else max(held)
        return out


@pytest.mark.parametrize("func", FUNCS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_matches_a_per_group_oracle(func, data):
    counter = OperationCounter()
    groups = GroupStates(func, counter)
    oracle = _Oracle(func)
    for __ in range(data.draw(st.integers(1, 12), label="calls")):
        held = oracle.values
        if not held or data.draw(st.booleans(), label="insert"):
            buckets = data.draw(
                st.dictionaries(KEYS, st.lists(VALUES, min_size=1, max_size=5),
                                min_size=1, max_size=4),
                label="inserted",
            )
            groups.insert(buckets)
            oracle.insert(buckets)
        else:
            keys = data.draw(
                st.lists(st.sampled_from(sorted(held)), min_size=1,
                         unique=True),
                label="groups",
            )
            buckets = {}
            for key in keys:
                order = data.draw(st.permutations(held[key]), label="order")
                buckets[key] = order[: data.draw(
                    st.integers(1, len(order)), label="deleted")]
            groups.delete(buckets)
            oracle.delete(buckets)
        expected = oracle.results()
        got = groups.results()
        # Bit-equal: repr round-trips a float exactly.
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in expected.items()
        }
        assert [groups.result(k) for k in expected] == list(expected.values())
        assert (counter.agg_updates, counter.sort_items,
                groups.recomputations) == (
            oracle.agg_updates, oracle.sort_items, oracle.recomputations)
        # Groups are gone at zero from every dict the kernel keeps.
        for kept in (groups.counts, groups.sums, groups.multisets,
                     groups.extrema):
            assert not kept or set(kept) == set(expected)


class TestFactory:
    def test_known_functions(self):
        for name, answer in [
            ("count", 2), ("sum", 3.0), ("avg", 1.5), ("min", 1.0),
            ("MAX", 2.0),
        ]:
            groups = GroupStates(name, OperationCounter())
            groups.insert({(): [1.0, 2.0]})
            assert groups.func == name.lower()
            assert groups.results() == {(): answer}

    def test_unknown_function(self):
        with pytest.raises(SchemaError, match="unknown aggregate"):
            GroupStates("median", OperationCounter())


class TestUnknownFunctionIsADefinitionError:
    """An unknown aggregate function is refused where the fold is built:
    with the plan or the view, before any row reaches it."""

    @staticmethod
    def _db():
        db = Database()
        db.create_table("t", Schema.of(k=ColumnType.INT, v=ColumnType.FLOAT))
        return db

    @staticmethod
    def _spec(func):
        return QuerySpec(
            base_alias="T", base_table="t",
            aggregate=AggregateSpec(func=func, value=col("T.v"),
                                    group_by=("T.k",)),
        )

    def test_operator_refuses_at_construction(self, toy_db):
        scan = SeqScan(toy_db.table("emp").snapshot(), "E", toy_db.counter)
        before = toy_db.counter.snapshot()
        with pytest.raises(SchemaError, match="unknown aggregate 'median'"):
            Aggregate(scan, "median", col("E.salary"))
        assert toy_db.counter.since(before) == {}

    def test_query_over_an_empty_table(self):
        with pytest.raises(SchemaError, match="unknown aggregate 'median'"):
            self._db().execute(self._spec("median"))

    def test_view_refused_and_coordinator_keeps_stepping(self):
        db = self._db()
        with pytest.raises(SchemaError, match="unknown aggregate"):
            MaterializedView("bad", db, self._spec("median"))
        coordinator = MaintenanceCoordinator(db)

        def config(name, func):
            return ViewConfig(
                name=name, query=self._spec(func), policy=NaivePolicy(),
                cost_functions=(LinearCost(slope=1.0, setup=1.0),),
                limit=1e9,
            )

        with pytest.raises(SchemaError, match="unknown aggregate"):
            coordinator.add_view(config("bad", "median"))
        good = coordinator.add_view(config("good", "sum"))
        assert coordinator.views == ("good",)
        db.table("t").insert((1, 2.5))
        coordinator.step(0)
        coordinator.refresh(t=1)
        assert good.contents() == {(1,): 2.5}
        assert not any(good.pending_sizes().values())


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

    def test_a_second_pull_answers_the_same_rows(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(), "E", toy_db.counter)
        agg = Aggregate(scan, "sum", col("E.salary"), group_by=["E.deptno"])
        start = toy_db.counter.agg_updates
        first = agg.rows()
        middle = toy_db.counter.agg_updates
        assert agg.rows() == first
        assert toy_db.counter.agg_updates - middle == middle - start > 0

    def test_grouped_over_empty_input_has_no_rows(self, toy_db):
        emp = toy_db.table("emp")
        scan = SeqScan(emp.snapshot(0), "E", toy_db.counter)
        agg = Aggregate(scan, "sum", col("E.salary"), group_by=["E.deptno"])
        assert agg.rows() == []
