"""Tests for the one event log (``repro.obs.events``).

The ring contract once, over every kind; the benchmark harness's sink
nesting verbatim; one governed step read back by its ``(view, t)`` and
told whole by the records that stay (the decision, the ledger entry and
its SLO verdict, the flush's calibration sample); and the telemetry-off
contract (nothing wanted, nothing built).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.governor import ControlEvent, PolicyGovernor, verdict
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import attrib, calibration, decisions, events, slo
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db

KINDS = tuple(events.CAPACITY)


def make_event(kind: str, t: int = 0, view: str | None = "v"):
    """A minimal event of ``kind`` for step ``(view, t)``."""
    if kind == "decision":
        return decisions.DecisionEvent(
            t=t, policy="NAIVE", backlog=(1,), backlog_ms=(2.0,), chosen=(0,),
            chosen_ms=(0.0,), predicted_ms=0.0, rationale="r", view=view,
        )
    if kind == "calibration":
        return calibration.CalibrationSample(view, t, "PS", 1, 2.0, 2.5)
    if kind == "slo":
        return slo.SloEvent(slo.BREACH, 10.0, 12.0, t=t, source="staged")
    if kind == "actuation":
        return ControlEvent(t, "online", "naive", "r", view=view)
    assert kind == "profile"
    return attrib.QueryProfile(None, view=view, round=t)


@pytest.fixture(autouse=True)
def fresh_log(event_log):
    """Each test gets its own installed log and leaves none behind."""
    return event_log


class TestRingContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bounded_and_counts_dropped(self, fresh_log, kind, monkeypatch):
        monkeypatch.setitem(events.CAPACITY, kind, 3)
        fresh_log.open(kind)
        for t in range(5):
            events.emit(kind, make_event(kind, t))
        ring = fresh_log.rings[kind]
        assert (len(ring), ring.dropped) == (3, 2)
        assert [e.t for e in ring.events()] == [2, 3, 4]
        assert [e.t for e in ring.events(4)] == [4]

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_capacity_is_per_kind(self, fresh_log, kind):
        fresh_log.open(kind)
        assert fresh_log.rings[kind].capacity == events.CAPACITY[kind]

    def test_a_flood_of_one_kind_cannot_evict_another(self, fresh_log,
                                                      monkeypatch):
        monkeypatch.setitem(events.CAPACITY, "decision", 2)
        monkeypatch.setitem(events.CAPACITY, "actuation", 2)
        fresh_log.open("decision")
        fresh_log.open("actuation")
        events.emit("actuation", make_event("actuation", 0))
        for t in range(10):
            events.emit("decision", make_event("decision", t))
        assert len(fresh_log.rings["actuation"]) == 1
        assert fresh_log.rings["decision"].dropped == 8

    def test_events_filter_by_view_and_step(self, fresh_log):
        fresh_log.open("decision")
        for view, t in (("a", 0), ("a", 1), ("b", 1)):
            events.emit("decision", make_event("decision", t, view))
        ring = fresh_log.rings["decision"]
        assert [e.view for e in ring.events() if e.view == "a"] == ["a", "a"]
        assert [e.t for e in ring.events(t=1)] == [1, 1]
        assert [e.view for e in ring.events(t=1)] == ["a", "b"]
        assert ring.events(t=7) == []

    def test_concurrent_emitters_lose_no_event(self, fresh_log, monkeypatch):
        monkeypatch.setitem(events.CAPACITY, "calibration", 1000)
        fresh_log.open("calibration")
        ring = fresh_log.rings["calibration"]

        def work(worker: int) -> None:
            for t in range(500):
                events.emit("calibration", make_event("calibration", t, f"w{worker}"))

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(ring) + ring.dropped == 8 * 500
        assert len(ring) == 1000


class TestInstallAndCollecting:
    def test_install_returns_previous(self, fresh_log):
        other = events.EventLog()
        assert events.install(other) is fresh_log
        assert events.installed() is other
        assert events.install(fresh_log) is other

    @pytest.mark.parametrize("kind", KINDS)
    def test_collecting_restores(self, fresh_log, kind):
        assert not events.wanted(kind)
        with events.collecting(kind) as log:
            assert log is fresh_log
            assert events.wanted(kind)
            ring = log.rings[kind]
            events.emit(kind, make_event(kind))
        assert not events.wanted(kind)
        assert fresh_log.rings == {} and fresh_log.wanted == {}
        events.emit(kind, make_event(kind))  # closed: not recorded
        assert len(ring) == 1  # the ring outlives the block for its reader

    def test_nested_collecting_joins_instead_of_shadowing(self, fresh_log):
        with events.collecting("decision") as outer:
            with events.collecting("decision", "slo") as inner:
                assert inner.rings["decision"] is outer.rings["decision"]
                events.emit("decision", make_event("decision"))
            # the inner block closed what it opened, and only that
            assert set(fresh_log.rings) == {"decision"}
            assert len(outer.rings["decision"]) == 1

    def test_unknown_kind_is_rejected(self, fresh_log):
        with pytest.raises(ValueError, match="unknown event kind"):
            fresh_log.subscribe("decisions", print)
        with pytest.raises(KeyError):
            with events.collecting("slo", "decisions"):
                pass
        assert fresh_log.rings == {}  # what it had opened is closed again


class TestSubscribers:
    def test_a_subscriber_with_no_ring_open_still_hears(self, fresh_log):
        heard: list[slo.SloEvent] = []
        with events.subscribe("slo", heard.append):
            assert events.wanted("slo") and not fresh_log.rings
            slo.observe_refresh(10.0, 11.0, t=3, source="staged")
        slo.observe_refresh(10.0, 11.0)
        assert [(e.source, e.t) for e in heard] == [("staged", 3)]
        assert not events.wanted("slo")

    def test_ring_and_subscribers_all_get_the_event(self, fresh_log):
        first, second = [], []
        with events.collecting("slo") as log, \
                events.subscribe("slo", first.append), \
                events.subscribe("slo", second.append):
            events.emit("slo", make_event("slo"))
            assert len(log.rings["slo"]) == len(first) == len(second) == 1

    def test_unsubscribing_a_stranger_is_a_noop(self, fresh_log):
        fresh_log.unsubscribe("slo", print)
        assert fresh_log.wanted == {}


class TestNothingWantedNothingBuilt:
    def test_emit_policy_decision_builds_no_event(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an event was constructed with telemetry off")

        monkeypatch.setattr(decisions, "DecisionEvent", forbidden)
        assert not decisions.active()
        assert (
            decisions.emit_policy_decision(
                "NAIVE", 0, (1,), (LinearCost(1.0),), 2.0, (0,), "noop"
            )
            is None
        )

    def test_emit_with_nobody_listening_is_safe(self):
        for kind in KINDS:
            events.emit(kind, make_event(kind))


def _fleet(limit: float):
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(
        ViewConfig(
            name="min_cost",
            query=QuerySpec(
                base_alias="PS",
                base_table="partsupp",
                aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
            ),
            policy=OnlinePolicy(),
            cost_functions=(LinearCost(slope=0.5, setup=2.0),),
            limit=limit,
            scheduled_aliases=("PS",),
        )
    )
    return coordinator, PartSuppCostUpdater(db.table("partsupp"), seed=5)


class TestHarnessNesting:
    """``benchmarks/layered`` nests its sinks exactly like this and pins
    how many events of each kind one pass sees."""

    def test_each_kind_is_counted_separately(self):
        coordinator, updater = _fleet(limit=12.0)  # f(24)=14: a flush at t=2
        profiles: list[dict] = []
        with obs.recording(trace=True) as recorder:
            with decisions.collecting() as decision_log:
                with calibration.tracking() as tracker:
                    previous = attrib.set_profile_sink(profiles.append)
                    try:
                        for t in range(6):
                            updater.apply(8)
                            coordinator.step(t)
                        seen = len(profiles)
                        # oracle_scope: every sink detached, then put back
                        obs.install(None)
                        sink = attrib.set_profile_sink(None)
                        try:
                            coordinator.maintainer("min_cost").view.recompute()
                        finally:
                            attrib.set_profile_sink(sink)
                            obs.install(recorder)
                        assert len(profiles) == seen
                        updater.apply(8)
                        coordinator.refresh(t=6)
                    finally:
                        assert attrib.set_profile_sink(previous) is not None
        assert previous is None and not events.wanted("profile")
        assert len(decision_log) == 6  # one per unforced step
        flushes = coordinator.maintainer("min_cost").ledger.flushes
        assert len(tracker) == len(tracker.samples()) == flushes > 0
        assert len(profiles) > seen > 0
        assert all(p["view"] == "min_cost" for p in profiles)
        assert recorder.trace_events(include_metrics=False)


class TestOneGovernedStep:
    def test_at_returns_every_kind_recorded_for_the_step(self):
        """A burst step under a governor that escalates on first
        pressure: its decision, calibration sample and actuation carry
        its ``(view, t)``, its SLO verdict is its ledger entry's, and
        what the step cost is its entry and its flush's sample, which
        agree."""
        coordinator, updater = _fleet(limit=6.5)  # f(8)=6.0, f(16)=10.0
        governor = PolicyGovernor(coordinator, escalate_after=1)
        kinds = ("decision", "calibration", "actuation")
        with events.collecting(*kinds) as log:
            for t in range(2):
                updater.apply(8)
                coordinator.step(t)
                governor.tick(t)
            quiet, burst, never = (
                {
                    kind: of_step
                    for kind, ring in log.rings.items()
                    if (of_step := [
                        e for e in ring.events(t) if e.view == "min_cost"
                    ])
                }
                for t in (0, 1, 99)
            )
        maintainer = coordinator.maintainer("min_cost")
        first, entry = maintainer.ledger.entries
        # t=0: 8 pending is refreshable, ONLINE defers inside the band.
        assert set(quiet) == {"decision", "actuation"}
        assert verdict(maintainer.model, first) == slo.NEAR_BREACH
        # t=1: 16 pending breaches C, the policy flushes, the flush is
        # sampled; the governor already moved at t=0 and holds.
        assert set(burst) == {"decision", "calibration"}
        (decision,), (sample,) = burst.values()
        assert decision.is_flush and decision.chosen == entry.action
        assert sample.actual_ms == entry.sim_ms > 0
        assert sample.predicted_ms == entry.predicted_ms == decision.predicted_ms
        assert sample.alias == "PS" and sample.k == 16
        assert verdict(maintainer.model, entry) == slo.BREACH
        (actuation,) = quiet["actuation"]
        assert (actuation.old, actuation.new) == ("online", "naive")
        assert never == {}
