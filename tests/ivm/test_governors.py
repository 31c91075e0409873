"""Governor unit tests: synthetic signals in, bounded actuations out."""

import contextlib

import pytest

from repro import obs
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.receding import RecedingHorizonPolicy
from repro.ivm.governor import (
    COOLDOWN,
    NAIVE,
    ONLINE,
    PolicyGovernor,
    _mode_of,
)
from repro.obs import events, slo


@contextlib.contextmanager
def collecting():
    """The governor's actuations for the block, as their ring."""
    with events.collecting("actuation") as log:
        yield log.rings["actuation"]


class FakeMaintainer:
    def __init__(self, policy):
        self.policy = policy

    def set_policy(self, policy):
        previous = self.policy
        self.policy = policy
        return previous


class FakeCoordinator:
    def __init__(self, **maintainers):
        self._maintainers = maintainers

    def maintainer(self, name):
        return self._maintainers[name]


def pressure(governor, view, steps):
    """One SLO breach of ``view`` at each of ``steps``."""
    for t in steps:
        governor._on_slo(
            slo.SloEvent(
                kind=slo.BREACH, limit=10.0, cost=12.0, t=t,
                source=f"ivm:{view}",
            )
        )


class TestModeOf:
    def test_known_policies(self):
        assert _mode_of(NaivePolicy()) == NAIVE
        assert _mode_of(OnlinePolicy()) == ONLINE
        # Any other policy is neither: SLO pressure escalates it, and a
        # quiet cooldown relaxes it to ONLINE.
        assert _mode_of(RecedingHorizonPolicy()) not in (NAIVE, ONLINE)


class TestPolicyGovernor:
    def test_escalates_to_naive_under_pressure(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=3
        )
        with collecting() as log:
            pressure(governor, "v", [4, 5, 6])
            governor.tick(7)
        assert isinstance(maintainer.policy, NaivePolicy)
        (event,) = log.events()
        assert (event.old, event.new) == (ONLINE, NAIVE)
        assert event.view == "v"
        assert event.signals["pressure_events"] == 3.0

    def test_pressure_below_threshold_holds(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=3
        )
        with collecting() as log:
            pressure(governor, "v", [4, 5])
            governor.tick(6)
        assert isinstance(maintainer.policy, OnlinePolicy)
        assert not log.events()

    def test_stale_pressure_outside_window_ignored(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=3
        )
        with collecting() as log:
            pressure(governor, "v", [1, 2, 3])
            governor.tick(50)  # all events fell out of the WINDOW
        assert isinstance(maintainer.policy, OnlinePolicy)
        assert not log.events()

    def test_quiet_cooldown_relaxes_back(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=1
        )
        with collecting() as log:
            pressure(governor, "v", [2])
            governor.tick(3)
            assert isinstance(maintainer.policy, NaivePolicy)
            governor.tick(1 + COOLDOWN)  # still within COOLDOWN: hold
            assert isinstance(maintainer.policy, NaivePolicy)
            governor.tick(2 + COOLDOWN)  # quiet for >= COOLDOWN: relax
        assert isinstance(maintainer.policy, OnlinePolicy)
        assert [e.new for e in log.events()] == [NAIVE, ONLINE]

    def test_removed_view_is_skipped(self):
        governor = PolicyGovernor(FakeCoordinator(), escalate_after=1)
        with collecting() as log:
            pressure(governor, "gone", [1])
            governor.tick(2)  # KeyError from the coordinator: no crash
        assert not log.events()

    def test_ignores_non_ivm_sources(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=1
        )
        governor._on_slo(
            slo.SloEvent(
                kind=slo.BREACH, limit=10.0, cost=12.0, t=1,
                source="pubsub:v",
            )
        )
        with collecting() as log:
            governor.tick(2)
        assert not log.events()

    def test_attach_via_live_alert_hub(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(paper=maintainer), escalate_after=2
        )
        with governor:
            slo.observe_refresh(10.0, 12.0, t=1, source="ivm:paper")
            slo.observe_refresh(10.0, 12.0, t=2, source="ivm:paper")
            with collecting():
                governor.tick(3)
        assert isinstance(maintainer.policy, NaivePolicy)

    def test_counts_switches_metric(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        governor = PolicyGovernor(
            FakeCoordinator(v=maintainer), escalate_after=1
        )
        with obs.recording() as rec, collecting():
            pressure(governor, "v", [1])
            governor.tick(2)
        # One counter, counted where the event is emitted.
        assert [
            n for n in rec.registry.names() if n.startswith("control.")
        ] == ["control.actuations"]
        assert rec.registry.get("control.actuations").value == 1

    def test_validates_thresholds(self):
        with pytest.raises(ValueError):
            PolicyGovernor(FakeCoordinator(), escalate_after=0)


class TestModeIsTheLivePolicy:
    """The governor reads a view's mode from the policy it runs at each
    tick, so a view re-registered under the same name or switched from
    outside is governed as it is, not as it was."""

    def escalated(self):
        """View ``v`` moved online -> naive at t=2."""
        coordinator = FakeCoordinator(v=FakeMaintainer(OnlinePolicy()))
        governor = PolicyGovernor(coordinator, escalate_after=1)
        pressure(governor, "v", [1])
        governor.tick(2)
        assert isinstance(coordinator.maintainer("v").policy, NaivePolicy)
        return coordinator, governor

    def test_re_registered_view_is_escalated(self):
        coordinator, governor = self.escalated()
        coordinator._maintainers["v"] = fresh = FakeMaintainer(OnlinePolicy())
        with collecting() as log:
            pressure(governor, "v", [30])
            governor.tick(30)
        assert isinstance(fresh.policy, NaivePolicy)
        assert [(e.old, e.new) for e in log.events()] == [(ONLINE, NAIVE)]

    def test_no_spurious_relax_of_a_view_already_online(self):
        coordinator, governor = self.escalated()
        online = OnlinePolicy()
        coordinator._maintainers["v"] = FakeMaintainer(online)
        with collecting() as log:
            governor.tick(45)  # quiet past the cooldown
        # The view keeps its policy object, estimator state included.
        assert coordinator.maintainer("v").policy is online
        assert not log.events()

    def test_external_set_policy_is_respected(self):
        coordinator, governor = self.escalated()
        coordinator.maintainer("v").set_policy(OnlinePolicy())
        with collecting() as log:
            pressure(governor, "v", [4])
            governor.tick(4)
        assert isinstance(coordinator.maintainer("v").policy, NaivePolicy)
        assert [(e.old, e.new) for e in log.events()] == [(ONLINE, NAIVE)]

    def test_removed_view_buffers_are_forgotten(self):
        coordinator, governor = self.escalated()
        del coordinator._maintainers["v"]
        governor.tick(3)
        assert not governor._pressure and not governor._last_event
