"""Tests for the multi-view maintenance coordinator."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy, PolicyError, ReplayPolicy
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.table import ModLog
from repro.engine.types import ColumnType, Schema
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import events
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_paper_spec, make_tpcr_db
from tests.ivm.test_sharedscan import supplycost_spec

COSTS = (LinearCost(slope=0.2, setup=1.0), LinearCost(slope=10.0, setup=120.0))


def count_view_spec():
    """A second summary over the same tables: suppliers per region."""
    return QuerySpec(
        base_alias="S",
        base_table="supplier",
        joins=(
            JoinSpec("N", "nation", "S.nationkey", "nationkey"),
            JoinSpec("R", "region", "N.regionkey", "regionkey"),
        ),
        aggregate=AggregateSpec(
            func="count", value=col("S.suppkey"), group_by=("R.name",)
        ),
    )


def make_coordinator():
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(
        ViewConfig(
            name="min_cost",
            query=make_paper_spec(),
            policy=OnlinePolicy(),
            cost_functions=COSTS,
            limit=600.0,
            scheduled_aliases=("PS", "S"),
        )
    )
    coordinator.add_view(
        ViewConfig(
            name="region_counts",
            query=count_view_spec(),
            policy=NaivePolicy(),
            cost_functions=(LinearCost(slope=12.0, setup=20.0),),
            limit=400.0,
            scheduled_aliases=("S",),
        )
    )
    ps = PartSuppCostUpdater(db.table("partsupp"), seed=91)
    sup = SupplierNationUpdater(db.table("supplier"), seed=92)
    return coordinator, ps, sup


class TestCoordination:
    def test_registration(self):
        coordinator, __, __ = make_coordinator()
        assert coordinator.views == ("min_cost", "region_counts")
        with pytest.raises(ValueError, match="already registered"):
            coordinator.add_view(
                ViewConfig(
                    name="min_cost",
                    query=make_paper_spec(),
                    policy=NaivePolicy(),
                    cost_functions=COSTS,
                    limit=600.0,
                    scheduled_aliases=("PS", "S"),
                )
            )

    def test_shared_clock_steps_every_view(self):
        coordinator, ps, sup = make_coordinator()
        for t in range(10):
            ps.apply(6)
            sup.apply(1)
            records = coordinator.step(t)
            assert set(records) == {"min_cost", "region_counts"}
            assert all(r.t == t for r in records.values())

    def test_views_lag_independently(self):
        coordinator, ps, sup = make_coordinator()
        for t in range(8):
            ps.apply(6)
            sup.apply(1)
            coordinator.step(t)
        # Different policies, different constraints: different pending
        # states are expected, and each view matches its own recompute.
        for name, maintainer in coordinator.iter_maintainers():
            assert maintainer.view.contents() == maintainer.view.recompute()

    def test_refresh_all(self):
        coordinator, ps, sup = make_coordinator()
        ps.apply(10)
        sup.apply(2)
        records = coordinator.refresh()
        assert set(records) == {"min_cost", "region_counts"}
        for __, maintainer in coordinator.iter_maintainers():
            assert not any(maintainer.view.pending_sizes().values())

    def test_refresh_subset(self):
        coordinator, ps, sup = make_coordinator()
        ps.apply(4)
        sup.apply(1)
        coordinator.refresh(names=["min_cost"])
        fresh = coordinator.maintainer("min_cost").view
        assert not any(fresh.pending_sizes().values())
        # The other view has not even pulled yet; force a pull to see lag.
        other = coordinator.maintainer("region_counts").view
        other.deltas["S"].pull()
        assert any(other.pending_sizes().values())

    def test_step_forces_exactly_the_named_views(self):
        coordinator, ps, sup = make_coordinator()
        twin, twin_ps, twin_sup = make_coordinator()
        for t in range(3):
            for updater in (ps, twin_ps):
                updater.apply(6)
            for updater in (sup, twin_sup):
                updater.apply(1)
            entries = coordinator.step(t, refresh=["region_counts"])
            stepped = twin.step(t)
            assert set(entries) == {"min_cost", "region_counts"}
            forced = entries["region_counts"]
            assert forced.forced and forced.action == forced.pre_state
            view = coordinator.maintainer("region_counts").view
            assert not any(view.pending_sizes().values())
            # The other view asked its policy, as in a plain step.
            other = entries["min_cost"]
            assert not other.forced
            assert (other.pre_state, other.action) == (
                stepped["min_cost"].pre_state, stepped["min_cost"].action
            )

    def test_unknown_refresh_name_raises_before_any_view_is_planned(self):
        coordinator, ps, sup = make_coordinator()
        ps.apply(6)
        sup.apply(1)
        with pytest.raises(KeyError, match="nope"):
            coordinator.step(0, refresh=["region_counts", "nope"])
        for __, maintainer in coordinator.iter_maintainers():
            assert maintainer.ledger.rounds == 0
            for delta in maintainer.view.deltas.values():
                assert delta.size == 0  # not even pulled
        entries = coordinator.step(0, refresh=["region_counts"])
        assert entries["region_counts"].forced

    def test_cost_accounting(self):
        coordinator, ps, sup = make_coordinator()
        for t in range(6):
            ps.apply(6)
            sup.apply(1)
            coordinator.step(t)
        coordinator.refresh()
        breakdown = coordinator.cost_breakdown()
        assert set(breakdown) == {"min_cost", "region_counts"}
        assert coordinator.total_cost_ms() == pytest.approx(
            sum(breakdown.values())
        )
        assert coordinator.total_cost_ms() > 0

    def test_remove_view(self):
        coordinator, __, __ = make_coordinator()
        coordinator.remove_view("region_counts")
        assert coordinator.views == ("min_cost",)
        with pytest.raises(KeyError):
            coordinator.remove_view("region_counts")
        with pytest.raises(KeyError):
            coordinator.maintainer("region_counts")


class TestOneModelPerCostClass:
    def test_equal_cost_functions_and_limit_share_one_model(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for name, cost, limit in [
            ("a", LinearCost(0.5, 2.0), 9.0),
            ("b", LinearCost(0.5, 2.0), 9.0),  # equal by value, not the same
            ("lax", LinearCost(0.5, 2.0), 14.0),
            ("steep", LinearCost(0.75, 2.0), 9.0),
        ]:
            coordinator.add_view(
                ViewConfig(
                    name=name,
                    query=supplycost_spec(),
                    policy=OnlinePolicy(),
                    cost_functions=(cost,),
                    limit=limit,
                    scheduled_aliases=("PS",),
                )
            )
        a, b, lax, steep = (
            coordinator.maintainer(n) for n in ("a", "b", "lax", "steep")
        )
        assert a.model is b.model
        assert a.model is not lax.model and a.model is not steep.model
        assert lax.limit == lax.model.limit == 14.0
        # Policies are the views' own, and so are the models they hold.
        assert a.policy is not b.policy
        assert a.policy.cost_tables is not b.policy.cost_tables
        # What one view prices, the other reads: the very same floats.
        priced = a.predicted_refresh_cost((7,))
        assert b.model.cost_tables[0][7] is a.model.cost_tables[0][7]
        assert b.predicted_refresh_cost((7,)) == priced == LinearCost(0.5, 2.0)(7)


class Zeros(Policy):
    """Never flushes: refused by Definition 1 once the state is full."""

    def decide(self, t, pre_state):
        return (0,) * self.n


class OverAsks(Policy):
    def decide(self, t, pre_state):
        return tuple(s + 1 for s in pre_state)


class Halves(Policy):
    """Asks for half the backlog, which is fractional when it is odd."""

    def decide(self, t, pre_state):
        return tuple(s / 2 for s in pre_state)


def fleet_with(*bad):
    """Healthy NAIVE views around ``bad`` ones, all over PartSupp with
    ``f(k) = 0.5 k + 2`` and ``C = 1``: any backlog must be flushed."""
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    policies = [NaivePolicy()]
    for policy in bad:
        policies += [policy, NaivePolicy()]
    for i, policy in enumerate(policies):
        coordinator.add_view(
            ViewConfig(
                name=f"v{i}",
                query=supplycost_spec(),
                policy=policy,
                cost_functions=(LinearCost(0.5, 2.0),),
                limit=1.0,
                scheduled_aliases=("PS",),
            )
        )
    return coordinator, PartSuppCostUpdater(db.table("partsupp"), seed=93)


class TestOneViewsRefusalIsItsOwn:
    """A ``PolicyError`` used to end the round where it was raised: the
    views after it stayed planned but not executed -- backlog over ``C``,
    no entry, a policy that ``observe``d without a ``record_action`` --
    and the logs untruncated."""

    @pytest.mark.parametrize(
        "bad,message",
        [
            (ReplayPolicy([]), "ReplayPolicy has no action"),  # decide raises
            (Zeros(), r"Zeros.* at t=\d: .*violates C=1"),  # check refuses
            (OverAsks(), r"OverAsks.* at t=\d: .*exceeds backlog"),
        ],
        ids=["decide-raises", "check-refuses", "over-asks"],
    )
    def test_the_other_views_complete_then_the_error_is_raised(
        self, bad, message
    ):
        coordinator, updater = fleet_with(bad)
        log = coordinator.database.table("partsupp").history
        for t in range(2):
            updater.apply(8)
            with pytest.raises(PolicyError, match=message):
                coordinator.step(t)
        for name in ("v0", "v2"):
            healthy = coordinator.maintainer(name)
            assert [e.action for e in healthy.ledger.entries] == [(8,), (8,)]
            assert healthy.pre_state() == (0,)
            assert healthy.view.contents() == healthy.view.recompute()
        refused = coordinator.maintainer("v1")
        # PR 20's rule for a refused step: no entry, nothing applied.
        assert refused.ledger.entries == []
        assert refused.pre_state() == (16,)
        # The round's tail ran: only the refused view pins history.
        assert log.safe_truncation_lsn() == (
            refused.view.deltas["PS"].applied_lsn
        )

    def test_a_fractional_action_is_refused_not_floored(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for name, policy in (("halves", Halves()), ("naive", NaivePolicy())):
            coordinator.add_view(
                ViewConfig(
                    name=name,
                    query=supplycost_spec(),
                    policy=policy,
                    cost_functions=(LinearCost(0.5, 2.0),),
                    limit=100.0,
                    scheduled_aliases=("PS",),
                )
            )
        PartSuppCostUpdater(db.table("partsupp"), seed=93).apply(7)
        with pytest.raises(
            PolicyError, match=r"Halves.* at t=0: .*non-integer.*\(3\.5,\)"
        ):
            coordinator.step(0)
        refused = coordinator.maintainer("halves")
        assert refused.ledger.entries == []
        assert refused.pre_state() == (7,)
        healthy = coordinator.maintainer("naive")
        assert [e.t for e in healthy.ledger.entries] == [0]
        assert healthy.view.contents() == healthy.view.recompute()

    def test_several_refusals_are_one_error_naming_each(self):
        coordinator, updater = fleet_with(Zeros(), ReplayPolicy([]))
        updater.apply(8)
        with pytest.raises(PolicyError) as raised:
            coordinator.step(0)
        message = str(raised.value)
        assert "2 views refused" in message
        assert "v1: " in message and "v3: ReplayPolicy" in message
        for name in ("v0", "v2", "v4"):
            assert coordinator.maintainer(name).ledger.backlog == 0
            assert coordinator.maintainer(name).ledger.rounds == 1


class Tripwire:
    """A constant every ``!=`` with which holds until it is armed."""

    armed = False

    def __ne__(self, other):
        if self.armed:
            raise RuntimeError("a view predicate raised")
        return True


def wired_fleet(*policies, wired=()):
    """Views ``v0``, ``v1``, ... over PartSupp under ``policies``, with
    ``f(k) = 0.5 k + 2`` and ``C = 1``; each one named in ``wired`` also
    filters on the returned tripwire."""
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    trip = Tripwire()
    for i, policy in enumerate(policies):
        spec = supplycost_spec()
        if f"v{i}" in wired:
            spec = QuerySpec(
                base_alias="PS", base_table="partsupp",
                filters=(col("PS.supplycost") != lit(trip),),
                aggregate=spec.aggregate,
            )
        coordinator.add_view(
            ViewConfig(
                name=f"v{i}",
                query=spec,
                policy=policy,
                cost_functions=(LinearCost(0.5, 2.0),),
                limit=1.0,
                scheduled_aliases=("PS",),
            )
        )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=93)
    return coordinator, updater, trip


class TestOneViewsErrorIsItsOwn:
    """Any exception from one view's round, not only a refusal, is that
    view's: the views after it execute, then the error is raised."""

    def test_a_raising_predicate_leaves_the_later_views_executed(self):
        coordinator, updater, trip = wired_fleet(
            NaivePolicy(), NaivePolicy(), NaivePolicy(), wired=("v1",)
        )
        log = coordinator.database.table("partsupp").history
        trip.armed = True
        updater.apply(8)
        with pytest.raises(RuntimeError, match="predicate raised"):
            coordinator.step(0)
        for name in ("v0", "v2"):
            healthy = coordinator.maintainer(name)
            assert [e.action for e in healthy.ledger.entries] == [(8,)]
            assert healthy.view.contents() == healthy.view.recompute()
        culprit = coordinator.maintainer("v1")
        assert culprit.ledger.entries == [] and culprit.pre_state() == (8,)
        assert log.safe_truncation_lsn() == (
            culprit.view.deltas["PS"].applied_lsn
        )
        trip.armed = False
        updater.apply(8)
        coordinator.step(1)
        assert culprit.pre_state() == (0,)
        assert culprit.view.contents() == culprit.view.recompute()

    def test_a_raising_subscriber_leaves_the_later_views_executed(self):
        coordinator, updater, _ = wired_fleet(
            NaivePolicy(), NaivePolicy(), NaivePolicy()
        )

        def blow(sample):
            if sample.view == "v1":
                raise RuntimeError("a subscriber raised")

        updater.apply(8)
        with events.subscribe("calibration", blow):
            with pytest.raises(RuntimeError, match="subscriber raised"):
                coordinator.step(0)
        for name in ("v0", "v1", "v2"):
            maintainer = coordinator.maintainer(name)
            assert [e.action for e in maintainer.ledger.entries] == [(8,)]
            assert maintainer.pre_state() == (0,)

    def test_an_error_beside_a_refusal_is_the_one_raised(self):
        coordinator, updater, trip = wired_fleet(
            NaivePolicy(), Zeros(), NaivePolicy(), NaivePolicy(),
            wired=("v2",),
        )
        trip.armed = True
        updater.apply(8)
        with pytest.raises(RuntimeError, match="predicate raised"):
            coordinator.step(0)
        for name in ("v0", "v3"):
            assert coordinator.maintainer(name).ledger.rounds == 1
        for name in ("v1", "v2"):
            assert coordinator.maintainer(name).ledger.rounds == 0


def test_a_round_that_raises_still_truncates_the_logs():
    """A round whose view raised something other than a refusal still
    reclaims the history every view has applied, as after a round that
    raised nothing."""
    db = Database()
    table = db.create_table("t", Schema.of(k=ColumnType.INT))
    table.history = ModLog(chunk_size=2)
    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(
        ViewConfig(
            name="total",
            query=QuerySpec(
                base_alias="T", base_table="t",
                aggregate=AggregateSpec(func="sum", value=col("T.k")),
            ),
            policy=NaivePolicy(),
            cost_functions=(LinearCost(1.0, 0.0),),
            limit=100.0,
        )
    )
    table.insert_rows([(k,) for k in range(6)])

    def blow(sample):
        raise RuntimeError("a subscriber raised")

    with events.subscribe("calibration", blow):
        with pytest.raises(RuntimeError, match="subscriber raised"):
            coordinator.refresh()
    assert coordinator.maintainer("total").view.deltas["T"].applied_lsn == 6
    assert table.history.retained == 0


def test_an_update_that_flips_filter_membership_is_not_suppressed():
    """The filter reads a column nothing else of the view reads: an update
    of that column alone changes which rows the view sums, so the window
    is no no-op although the summed column is untouched."""
    db = Database()
    table = db.create_table(
        "t", Schema.of(k=ColumnType.INT, v=ColumnType.INT)
    )
    table.insert_rows([(1, 10), (2, 20)])
    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(
        ViewConfig(
            name="kept",
            query=QuerySpec(
                base_alias="T", base_table="t",
                filters=(col("T.k") > lit(1),),
                aggregate=AggregateSpec(func="sum", value=col("T.v")),
            ),
            policy=NaivePolicy(),
            cost_functions=(LinearCost(1.0, 0.0),),
            limit=100.0,
        )
    )
    table.update_rid(table.live_rids()[0], {"k": 5})
    coordinator.refresh()
    assert coordinator.maintainer("kept").view.scalar() == 30
