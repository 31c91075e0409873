"""The governor is its own controller: subscribe on entry, unsubscribe on exit."""

from repro.core.costfuncs import LinearCost
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.governor import PolicyGovernor
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import calibration, events
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db


class FakeCoordinator:
    def maintainer(self, name):
        raise KeyError(name)


class TestController:
    def test_context_manager_attaches_and_detaches(self):
        governor = PolicyGovernor(FakeCoordinator())
        assert not events.installed().wanted
        with governor as entered:
            assert entered is governor
            # The governor hears SLO events and nothing else.
            assert list(events.installed().wanted) == ["slo"]
        assert not events.installed().wanted

    def test_detach_is_idempotent_and_safe_unattached(self):
        governor = PolicyGovernor(FakeCoordinator())
        governor.__exit__(None, None, None)  # never entered: no-op
        with events.subscribe("slo", print):
            with governor:
                pass
            governor.__exit__(None, None, None)
            # only its own subscriptions went
            assert events.installed().wanted == {"slo": (print,)}

    def test_attached_governor_does_not_turn_on_flush_metering(
        self, monkeypatch
    ):
        """With no recorder and no calibration ring, nobody consumes a
        calibration sample, and a governed round builds none."""
        calls = []
        monkeypatch.setattr(
            calibration, "observe_flush", lambda *a, **k: calls.append(a)
        )
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        coordinator.add_view(
            ViewConfig(
                name="min_cost",
                query=QuerySpec(
                    base_alias="PS",
                    base_table="partsupp",
                    aggregate=AggregateSpec(
                        func="min", value=col("PS.supplycost")
                    ),
                ),
                policy=OnlinePolicy(),
                cost_functions=(LinearCost(slope=0.5, setup=2.0),),
                limit=1.0,
                scheduled_aliases=("PS",),
            )
        )
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=5)
        with PolicyGovernor(coordinator) as governor:
            for t in range(3):
                updater.apply(8)
                coordinator.step(t)
                governor.tick(t)
        assert coordinator.maintainer("min_cost").ledger.flushes > 0
        assert calls == []
