"""Governor unit tests: synthetic ledger entries in, bounded actuations out."""

import contextlib

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import CostModel
from repro.core.receding import RecedingHorizonPolicy
from repro.ivm.governor import (
    COOLDOWN,
    NAIVE,
    ONLINE,
    PolicyGovernor,
    _mode_of,
)
from repro.ivm.ledger import NO_CHARGES, RoundEntry, ViewLedger
from repro.obs import events


@contextlib.contextmanager
def collecting():
    """The governor's actuations for the block, as their ring."""
    with events.collecting("actuation") as log:
        yield log.rings["actuation"]


#: ``f(k) = k`` under ``C = 10``: 12 pending breaches, 9 is a near-breach.
MODEL = CostModel((LinearCost(1.0),), 10.0)


class FakeMaintainer:
    def __init__(self, policy):
        self.policy = policy
        self.model = MODEL
        self.ledger = ViewLedger("v", ("T",))

    def set_policy(self, policy):
        previous = self.policy
        self.policy = policy
        return previous


class FakeCoordinator:
    def __init__(self, **maintainers):
        self._maintainers = maintainers

    def maintainer(self, name):
        return self._maintainers[name]

    def iter_maintainers(self):
        yield from self._maintainers.items()


def entry(t, pending, flushed):
    return RoundEntry(
        t, (pending,), (pending,), (flushed,), False, float(flushed),
        sim_ms=0.0, backlog=pending - flushed, charges=NO_CHARGES,
    )


def pressure(coordinator, view, steps):
    """One breaching view-round of ``view`` at each of ``steps``: 12
    pending, all flushed, so only the pre-action state is over ``C``."""
    ledger = coordinator.maintainer(view).ledger
    for t in steps:
        ledger.record(entry(t, 12, 12))


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
        coordinator = FakeCoordinator(v=maintainer)
        governor = PolicyGovernor(coordinator, escalate_after=3)
        with collecting() as log:
            pressure(coordinator, "v", [4, 5, 6])
            governor.tick(7)
        assert isinstance(maintainer.policy, NaivePolicy)
        (event,) = log.events()
        assert (event.old, event.new) == (ONLINE, NAIVE)
        assert event.view == "v"
        assert event.signals["pressure_events"] == 3.0

    def test_pressure_below_threshold_holds(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        coordinator = FakeCoordinator(v=maintainer)
        governor = PolicyGovernor(coordinator, escalate_after=3)
        with collecting() as log:
            pressure(coordinator, "v", [4, 5])
            maintainer.ledger.record(entry(6, 8, 0))  # quiet: f(8) < 0.9 C
            governor.tick(6)
            assert isinstance(maintainer.policy, OnlinePolicy)
            assert not log.events()
            maintainer.ledger.record(entry(7, 9, 9))  # a near-breach counts
            governor.tick(7)
        assert isinstance(maintainer.policy, NaivePolicy)
        (event,) = log.events()
        assert event.signals["pressure_events"] == 3.0

    def test_stale_pressure_outside_window_ignored(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        coordinator = FakeCoordinator(v=maintainer)
        governor = PolicyGovernor(coordinator, escalate_after=3)
        with collecting() as log:
            pressure(coordinator, "v", [1, 2, 3])
            governor.tick(50)  # all entries fell out of the WINDOW
        assert isinstance(maintainer.policy, OnlinePolicy)
        assert not log.events()

    def test_quiet_cooldown_relaxes_back(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        coordinator = FakeCoordinator(v=maintainer)
        governor = PolicyGovernor(coordinator, escalate_after=1)
        with collecting() as log:
            pressure(coordinator, "v", [2])
            governor.tick(3)
            assert isinstance(maintainer.policy, NaivePolicy)
            governor.tick(1 + COOLDOWN)  # still within COOLDOWN: hold
            assert isinstance(maintainer.policy, NaivePolicy)
            governor.tick(2 + COOLDOWN)  # quiet for >= COOLDOWN: relax
        assert isinstance(maintainer.policy, OnlinePolicy)
        assert [e.new for e in log.events()] == [NAIVE, ONLINE]

    def test_removed_view_is_skipped(self):
        coordinator = FakeCoordinator(gone=FakeMaintainer(OnlinePolicy()))
        governor = PolicyGovernor(coordinator, escalate_after=1)
        with collecting() as log:
            pressure(coordinator, "gone", [1])
            governor.tick(1)
            del coordinator._maintainers["gone"]
            governor.tick(2)  # the coordinator no longer has it: no crash
        assert [e.view for e in log.events()] == ["gone"]

    def test_counts_switches_metric(self):
        maintainer = FakeMaintainer(OnlinePolicy())
        coordinator = FakeCoordinator(v=maintainer)
        governor = PolicyGovernor(coordinator, escalate_after=1)
        with obs.recording() as rec, collecting():
            pressure(coordinator, "v", [1])
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
        pressure(coordinator, "v", [1])
        governor.tick(2)
        assert isinstance(coordinator.maintainer("v").policy, NaivePolicy)
        return coordinator, governor

    def test_re_registered_view_is_escalated(self):
        coordinator, governor = self.escalated()
        coordinator._maintainers["v"] = fresh = FakeMaintainer(OnlinePolicy())
        with collecting() as log:
            # The fresh view's ledger is read from its start.
            pressure(coordinator, "v", [30])
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
            pressure(coordinator, "v", [4])
            governor.tick(4)
        assert isinstance(coordinator.maintainer("v").policy, NaivePolicy)
        assert [(e.old, e.new) for e in log.events()] == [(ONLINE, NAIVE)]

    def test_removed_view_buffers_are_forgotten(self):
        coordinator, governor = self.escalated()
        del coordinator._maintainers["v"]
        governor.tick(3)
        assert not governor._pressure and not governor._read
