"""Integration tests for the pub/sub broker over the TPC-R scenario."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.pubsub import (
    EveryNSteps,
    PubSubBroker,
    Subscription,
    ValueWatch,
)
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_paper_spec, make_tpcr_db

COSTS = (LinearCost(slope=0.2, setup=1.0), LinearCost(slope=10.0, setup=120.0))
LIMIT = 600.0


def make_subscription(name, condition, policy=None):
    return Subscription(
        name=name,
        query=make_paper_spec(),
        condition=condition,
        policy=policy or OnlinePolicy(),
        cost_functions=COSTS,
        limit=LIMIT,
        scheduled_aliases=("PS", "S"),
    )


def make_broker():
    db = make_tpcr_db()
    broker = PubSubBroker(db)
    ps = PartSuppCostUpdater(db.table("partsupp"), seed=81)
    sup = SupplierNationUpdater(db.table("supplier"), seed=82)
    return broker, ps, sup


class TestRegistration:
    def test_subscribe_materializes_immediately(self):
        broker, __, __ = make_broker()
        broker.subscribe(make_subscription("s1", EveryNSteps(5)))
        assert broker.subscriptions == ("s1",)
        assert broker.result("s1") is not None  # MIN over non-empty join

    def test_duplicate_name_rejected(self):
        broker, __, __ = make_broker()
        broker.subscribe(make_subscription("s1", EveryNSteps(5)))
        with pytest.raises(ValueError, match="already registered"):
            broker.subscribe(make_subscription("s1", EveryNSteps(5)))

    def test_unsubscribe(self):
        broker, __, __ = make_broker()
        broker.subscribe(make_subscription("s1", EveryNSteps(5)))
        broker.unsubscribe("s1")
        assert broker.subscriptions == ()
        with pytest.raises(KeyError):
            broker.unsubscribe("s1")
        with pytest.raises(KeyError):
            broker.result("s1")


class TestNotifications:
    def test_periodic_notifications_fire(self):
        broker, ps, sup = make_broker()
        broker.subscribe(
            make_subscription("hourly", EveryNSteps(4, phase=3))
        )
        fired_at = []
        for t in range(12):
            ps.apply(5)
            sup.apply(1)
            fired = broker.tick(t)
            fired_at.extend(n.t for n in fired)
        assert fired_at == [3, 7, 11]

    def test_notification_carries_fresh_result(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("s", EveryNSteps(3, phase=2)))
        for t in range(3):
            ps.apply(5)
            sup.apply(1)
            fired = broker.tick(t)
        assert len(fired) == 1
        notification = fired[0]
        # After the refresh the view must match a from-scratch recompute.
        registration = broker._registration("s")
        assert not any(registration.view.pending_sizes().values())
        assert notification.new_result == registration.view.scalar()

    def test_guarantee_respected(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("s", EveryNSteps(6, phase=5)))
        for t in range(18):
            ps.apply(10)
            sup.apply(1)
            broker.tick(t)
        assert broker.guarantee_violations("s") == 0
        for n in broker.notifications("s"):
            assert n.within_guarantee

    def test_value_watch_subscription(self):
        broker, ps, sup = make_broker()
        db = broker.database

        def min_acctbal(database):
            return min(
                row[5] for row in database.table("supplier").live_rows()
            )

        broker.subscribe(
            make_subscription(
                "watch", ValueWatch(min_acctbal, relative=0.10)
            )
        )
        # Quiet steps: no notification.
        assert broker.tick(0) == []
        assert broker.tick(1) == []
        # Drop a supplier's balance far below the baseline.
        sup_table = db.table("supplier")
        rid = sup_table.find_rids(lambda r: True)[0]
        sup_table.update_rid(rid, {"acctbal": -99999.0})
        # nationkey unchanged => this is an unscheduled-column update on a
        # scheduled table; it still flows through the S delta queue.
        fired = broker.tick(2)
        assert [n.subscription for n in fired] == ["watch"]

    def test_changed_flag(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("s", EveryNSteps(1)))
        # No modifications: consecutive notifications carry equal results.
        broker.tick(0)
        fired = broker.tick(1)
        assert fired and not fired[0].changed


class TestMultipleSubscriptions:
    def test_independent_policies_and_costs(self):
        broker, ps, sup = make_broker()
        broker.subscribe(
            make_subscription("naive", EveryNSteps(8, phase=7), NaivePolicy())
        )
        broker.subscribe(
            make_subscription("online", EveryNSteps(8, phase=7), OnlinePolicy())
        )
        for t in range(24):
            ps.apply(25)
            sup.apply(1)
            broker.tick(t)
        assert len(broker.notifications("naive")) == 3
        assert len(broker.notifications("online")) == 3
        # Results agree (same data), costs may differ (different policies).
        for a, b in zip(
            broker.notifications("naive"), broker.notifications("online")
        ):
            assert a.new_result == b.new_result
        assert broker.maintenance_cost_ms("naive") > 0
        assert broker.maintenance_cost_ms("online") > 0


class TestOneCoordinator:
    """The broker is a client of one maintenance coordinator: one round
    per tick refreshes the triggered subscriptions and steps the rest."""

    def _run(self, broker, ps, sup, ticks, start=0):
        fired = []
        for t in range(start, start + ticks):
            ps.apply(20)
            sup.apply(1)
            fired.extend(broker.tick(t))
        return fired

    def test_a_refresh_is_observed_once(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("s", EveryNSteps(5, phase=4)))
        fired = self._run(broker, ps, sup, 20)
        assert [n.t for n in fired] == [4, 9, 14, 19]
        # One ledger entry per tick, the refreshes included; a refresh's
        # entry is the round it was forced in.
        ledger = broker._coordinator.maintainer("sub_s").ledger
        assert [e.t for e in ledger.entries] == list(range(20))
        assert [e.t for e in ledger.entries if e.forced] == [4, 9, 14, 19]
        assert [n.refresh_cost_ms for n in fired] == [
            e.sim_ms for e in ledger.entries if e.forced
        ]

    def test_the_broker_truncates_the_mod_log(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("s", EveryNSteps(5, phase=4)))
        log = broker.database.table("partsupp").history
        self._run(broker, ps, sup, 200)
        view = broker._registration("s").view
        assert 0 < log.truncated_lsn <= view.deltas["PS"].applied_lsn
        assert view.contents() == view.recompute()

    def test_unsubscribe_releases_only_what_it_pinned(self):
        broker, ps, sup = make_broker()
        broker.subscribe(make_subscription("keeper", EveryNSteps(5, phase=4)))
        # Never notified, never full: its view applies nothing and pins
        # the whole history.
        broker.subscribe(
            Subscription(
                name="laggard",
                query=make_paper_spec(),
                condition=EveryNSteps(1000, phase=999),
                policy=NaivePolicy(),
                cost_functions=COSTS,
                limit=1e9,
                scheduled_aliases=("PS", "S"),
            )
        )
        log = broker.database.table("partsupp").history
        self._run(broker, ps, sup, 200)
        assert log.truncated_lsn == 0
        broker.unsubscribe("laggard")
        keeper = broker._registration("keeper").view
        assert 0 < log.truncated_lsn <= keeper.deltas["PS"].applied_lsn
        # What the keeper has not applied is still there for it.
        self._run(broker, ps, sup, 5, start=200)
        assert not any(keeper.pending_sizes().values())
        assert broker.result("keeper") == keeper.scalar()
        assert keeper.contents() == keeper.recompute()
