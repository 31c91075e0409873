"""Shared contents: lock-step views hold one state, folded once a round.

A coordinator's views materialized from one evaluation hold one
:class:`~repro.ivm.view.Contents` state.  The first holder to fold a
round's input makes the fold -- in place when the round runs every
holder of the state alike, else into a copy -- and every other holder
adopts it and is charged again what the fold charged.  A sole holder
folds in place.

The fleet below starts in lock step and is split by everything that can
split it: a policy that defers (a laxer limit), a forced refresh of one
view, a ``set_policy``, a ``remove_view`` and a late ``add_view``.  SUM
and MIN of one column by one key read one fold input out of one delta
query, so only the aggregate function tells their states apart.  Round
by round every view equals its ``recompute()`` and a standalone
maintainer driven the same way, and the round folds once per distinct
state.
"""

from unittest import mock

import pytest

from repro.core.naive import NaivePolicy
from repro.engine.errors import ExecutionError
from repro.engine.query import QuerySpec
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db
from tests.ivm.test_sharedscan import cost_by_supplier_spec
from tests.ivm.test_sharedscan_differential import (
    MODS_PER_STEP,
    half_two,
    min_cost_spec,
)

ROUNDS = 7


def rows_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="PS", base_table="partsupp",
        projection=("PS.supplycost", "PS.suppkey"),
    )


class Eager(NaivePolicy):
    """Flushes whatever is pending, full or not; declares no pure
    ``decide``."""

    def decide(self, t, pre_state):
        return tuple(pre_state)


class Trickle(NaivePolicy):
    """Flushes one modification per table while any is pending."""

    def decide(self, t, pre_state):
        return tuple(min(1, k) for k in pre_state)


#: name -> (spec factory, limit).  Limit 1.0 makes every backlog full,
#: so those views flush every round; at 6.0 a backlog of one step's
#: updates is not full, so those defer every other round.
FLEET = {
    **{f"min_{i}": (min_cost_spec, 1.0) for i in range(4)},
    **{f"lax_{i}": (min_cost_spec, 6.0) for i in range(4)},
    **{f"sum_{i}": (lambda: cost_by_supplier_spec("sum"), 1.0)
       for i in range(3)},
    **{f"low_{i}": (lambda: cost_by_supplier_spec("min"), 1.0)
       for i in range(3)},
    **{f"rows_{i}": (rows_spec, 1.0) for i in range(3)},
}
#: Registered after round 2.
LATE = {
    "late_min_0": (min_cost_spec, 1.0),
    "late_min_1": (min_cost_spec, 1.0),
    "late_sum": (lambda: cost_by_supplier_spec("sum"), 1.0),
}


class Fleet:
    """The coordinated fleet and its standalone twin, driven alike."""

    def __init__(self):
        self.db = make_tpcr_db()
        self.twin_db = make_tpcr_db()
        self.coordinator = MaintenanceCoordinator(self.db)
        self.alone: dict[str, ViewMaintainer] = {}
        self.updaters = [
            PartSuppCostUpdater(db.table("partsupp"), seed=101)
            for db in (self.db, self.twin_db)
        ]

    def add(self, members: dict) -> None:
        for name, (spec, limit) in members.items():
            self.coordinator.add_view(ViewConfig(
                name, spec(), NaivePolicy(), (half_two(),), limit, ("PS",)
            ))
            self.alone[name] = ViewMaintainer(
                MaterializedView(name, self.twin_db, spec()), (half_two(),),
                limit, NaivePolicy(), scheduled_aliases=("PS",),
            )

    def remove(self, name: str) -> None:
        self.coordinator.remove_view(name)
        self.alone.pop(name).view.close()

    def set_policy(self, name: str, make) -> None:
        self.coordinator.maintainer(name).set_policy(make())
        self.alone[name].set_policy(make())

    def step(self, t: int, refresh=()) -> None:
        for updater in self.updaters:
            updater.apply(MODS_PER_STEP)
        self.coordinator.step(t, refresh=refresh)
        for name, maintainer in self.alone.items():
            if name in refresh:
                maintainer.refresh(t)
            else:
                maintainer.step(t)

    def states(self) -> dict:
        return {
            name: m.view.state
            for name, m in self.coordinator.iter_maintainers()
        }

    def check(self) -> None:
        for name, m in self.coordinator.iter_maintainers():
            view = m.view
            assert view.contents() == pytest.approx(view.recompute()), name
            assert view.contents() == self.alone[name].view.contents(), name


def test_a_splitting_fleet_folds_once_per_distinct_state():
    fold = MaterializedView._fold_data
    with mock.patch.object(
        MaterializedView, "_fold_data", autospec=True, side_effect=fold
    ) as spy:
        fleet = Fleet()

        def folds():
            """The coordinated views' folds since the spy was reset."""
            return sum(
                c.args[0].database is fleet.db for c in spy.call_args_list
            )

        fleet.add(FLEET)
        # Materialized from one query per spec: one fold per family, and
        # SUM and MIN by supplier do not share one.
        families = len({id(state) for state in fleet.states().values()})
        assert folds() == families == 4
        fleet.check()
        splits = {
            2: lambda: fleet.add(LATE),
            3: lambda: fleet.set_policy("lax_1", Eager),
            4: lambda: fleet.remove("min_1"),
        }
        for t in range(ROUNDS):
            before = fleet.states()
            spy.reset_mock()
            fleet.step(t, refresh=["lax_0"] if t == 2 else ())
            worked = {
                id(before[name])
                for name, m in fleet.coordinator.iter_maintainers()
                if name in before and m.ledger.entries[-1].charges
            }
            # An update window folds two inputs, inserted rows and deleted.
            assert folds() == 2 * len(worked), t
            fleet.check()
            splits.get(t, lambda: None)()
    after = fleet.states()
    # The fleet split but still shares: the lax group, the two views
    # taken out of it, the strict MIN group, SUM, MIN by supplier, the
    # rows and the two late families.
    assert len({id(state) for state in after.values()}) == 9
    assert after["lax_2"] is after["lax_3"] is not after["lax_0"]
    assert after["lax_1"] is not after["lax_0"]
    assert after["min_0"] is after["min_2"] is not after["late_min_0"]
    assert after["sum_0"] is not after["low_0"]
    assert {name: state.holders for name, state in after.items()} == {
        name: sum(s is state for s in after.values())
        for name, state in after.items()
    }


def test_a_removed_view_keeps_its_contents_and_lets_go():
    fleet = Fleet()
    fleet.add({name: FLEET[name] for name in ("min_0", "min_1")})
    fleet.step(0)
    kept = fleet.coordinator.maintainer("min_1").view
    shared = kept.state
    assert shared.holders == 2
    contents = kept.contents()
    fleet.coordinator.remove_view("min_1")
    assert shared.holders == 1 and kept.state is not shared
    # The one holder left folds in place; the removed view is untouched.
    fleet.step(1)
    assert fleet.coordinator.maintainer("min_0").view.state is shared
    assert kept.contents() == contents


def test_a_sole_holder_folds_in_place():
    db = make_tpcr_db()
    view = MaterializedView("alone", db, min_cost_spec())
    maintainer = ViewMaintainer(
        view, (half_two(),), 1.0, NaivePolicy(), scheduled_aliases=("PS",)
    )
    state = view.state
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=5)
    for t in range(3):
        updater.apply(MODS_PER_STEP)
        maintainer.step(t)
        assert view.state is state and state.holders == 1
    assert view.contents() == view.recompute()


def test_a_lock_step_group_folds_in_place():
    """Holders the round runs alike copy nothing: the first folds the
    state in place and the others adopt that fold, round after round."""
    fleet = Fleet()
    fleet.add({name: FLEET[name] for name in ("rows_0", "rows_1", "sum_0",
                                              "sum_1", "sum_2")})
    states = fleet.states()
    for t in range(3):
        fleet.step(t)
        fleet.check()
        now = fleet.states()
        assert all(now[name] is state for name, state in states.items()), t


def test_holders_that_part_ways_fold_copies():
    """Two holders that both work, with different actions, fold different
    windows: neither may fold the state the other still reads."""
    fleet = Fleet()
    fleet.add({"eager": (min_cost_spec, 1000.0),
               "trickle": (min_cost_spec, 1000.0)})
    fleet.set_policy("eager", Eager)
    fleet.set_policy("trickle", Trickle)
    for t in range(3):
        fleet.step(t)
        fleet.check()
    states = fleet.states()
    assert states["eager"] is not states["trickle"]


def test_a_raising_fold_leaves_each_holder_what_it_leaves_one_alone():
    """The first holder's fold raises in place; the others adopt the
    state as far as it got and raise too, folding nothing again."""
    fleet = Fleet()
    fleet.add({name: FLEET[name] for name in ("sum_0", "sum_1", "sum_2")})
    fleet.step(0)
    fold = MaterializedView._fold_data

    def raising(view, data, folding, sign):
        fold(view, data, folding, sign)
        if sign < 0:
            raise ExecutionError("injected")

    for updater in fleet.updaters:
        updater.apply(MODS_PER_STEP)
    with mock.patch.object(MaterializedView, "_fold_data", raising):
        with pytest.raises(ExecutionError, match="view 'sum_0': injected"):
            fleet.coordinator.step(1)
        for name, maintainer in fleet.alone.items():
            with pytest.raises(ExecutionError, match=f"{name!r}: injected"):
                maintainer.step(1)
    for name, maintainer in fleet.coordinator.iter_maintainers():
        assert len(maintainer.ledger.entries) == 1, name
        assert (
            maintainer.view.contents() == fleet.alone[name].view.contents()
        ), name
