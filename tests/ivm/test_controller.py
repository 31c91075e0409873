"""The governor reads ledgers: no subscription, nothing to enter."""

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.governor import COOLDOWN, PolicyGovernor
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import calibration, events
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db


def min_cost_fleet(limit: float):
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
            limit=limit,
            scheduled_aliases=("PS",),
        )
    )
    return coordinator, PartSuppCostUpdater(db.table("partsupp"), seed=5)


class TestController:
    def test_an_unentered_governor_escalates_and_relaxes_a_live_view(self):
        """No recorder, no ring, no subscription: the governor hears the
        view's pressure from its ledger alone."""
        coordinator, updater = min_cost_fleet(limit=6.5)  # f(8) = 6.0
        governor = PolicyGovernor(coordinator, escalate_after=1)
        maintainer = coordinator.maintainer("min_cost")
        modes = []
        assert obs.get_recorder() is None
        for t in range(COOLDOWN + 3):
            if t < 2:
                updater.apply(8)  # the only arrivals of the run
            coordinator.step(t)
            governor.tick(t)
            assert not events.installed().wanted
            modes.append(type(maintainer.policy))
        # t=0: ONLINE defers 8 pending inside the near-breach band, and
        # the tick escalates; t=1: 16 pending breach C, and NAIVE
        # flushes them; quiet from t=2, relaxed COOLDOWN steps after the
        # last pressure.
        pending = [e.pre_state for e in maintainer.ledger.entries]
        assert pending[:3] == [(8,), (16,), (0,)]
        assert modes == [NaivePolicy] * (COOLDOWN + 1) + [OnlinePolicy] * 2

    def test_attached_governor_does_not_turn_on_flush_metering(
        self, monkeypatch
    ):
        """With no recorder and no calibration ring, nobody consumes a
        calibration sample, and a governed round builds none."""
        calls = []
        monkeypatch.setattr(
            calibration, "observe_flush", lambda *a, **k: calls.append(a)
        )
        coordinator, updater = min_cost_fleet(limit=1.0)
        governor = PolicyGovernor(coordinator)
        for t in range(3):
            updater.apply(8)
            coordinator.step(t)
            governor.tick(t)
        assert coordinator.maintainer("min_cost").ledger.flushes > 0
        assert calls == []
