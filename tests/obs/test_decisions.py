"""Tests for planner decision tracing (``repro.obs.decisions``).

Unit coverage of the event data model (frozen, JSONL round-trip, a log
line written when decisions still carried their joined cost), the
``decision`` ring of the event log, the golden ``repro why`` text tree
with a live step's flushes hung under its decision, and the per-policy
emission contract: NAIVE, ONLINE, receding-horizon, and A* all report
what they predicted and chose.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.core.receding import RecedingHorizonPolicy
from repro.core.simulator import simulate_policy
from repro.obs import decisions, events
from repro.obs.calibration import CalibrationSample
from repro.obs.decisions import CandidateAction, DecisionEvent


def render_decision_trail(trail, **filters) -> str:
    """What ``repro why`` prints."""
    return events.render_trail(trail, "decision trail", "decision", **filters)


def make_event(t=0, view=None, chosen=(0,), **overrides) -> DecisionEvent:
    fields = dict(
        t=t,
        policy="NAIVE",
        backlog=(1,),
        backlog_ms=(2.0,),
        chosen=tuple(chosen),
        chosen_ms=tuple(2.0 if k else 0.0 for k in chosen),
        predicted_ms=sum(2.0 if k else 0.0 for k in chosen),
        rationale="because",
        view=view,
    )
    fields.update(overrides)
    return DecisionEvent(**fields)


def small_problem(horizon=6, limit=2.5) -> ProblemInstance:
    return ProblemInstance(
        cost_functions=(LinearCost(slope=1.0, setup=0.5),),
        limit=limit,
        arrivals=[(1,)] * (horizon + 1),
    )


class TestCandidateAction:
    def test_round_trip(self):
        cand = CandidateAction((2, 0), 3.5, score=0.25, note="greedy")
        assert CandidateAction.from_dict(cand.to_dict()) == cand

    def test_optional_fields_omitted_from_dict(self):
        bare = CandidateAction((1,), 1.0)
        assert bare.to_dict() == {"action": [1], "predicted_ms": 1.0}
        assert CandidateAction.from_dict(bare.to_dict()) == bare


class TestDecisionEvent:
    def test_is_flush(self):
        assert make_event(chosen=(1, 0)).is_flush
        assert not make_event(chosen=(0, 0)).is_flush

    def test_round_trip_including_joined_fields(self):
        """A decision is written once: it is frozen, round-trips, and a
        line that still carries the cost a decision was once joined with
        reads back as the decision alone."""
        event = make_event(
            t=7,
            view="min_cost",
            chosen=(2,),
            candidates=(CandidateAction((2,), 2.0, score=0.5),),
            limit=4.0,
        )
        with pytest.raises(AttributeError):
            event.predicted_ms = 9.0
        assert DecisionEvent.from_dict(event.to_dict()) == event
        joined = dict(
            event.to_dict(),
            actual_ms=2.5,
            actual_table_ms={"PS": 2.5},
            charges={"index_probes": 10},
        )
        assert DecisionEvent.from_dict(joined) == event
        assert "actual_ms" not in event.to_dict()


class TestDecisionLog:
    def test_records_in_order(self):
        with decisions.collecting() as ring:
            emitted = [decisions.emit(make_event(t=t)) for t in range(3)]
        assert len(ring) == 3
        assert ring.events() == emitted
        assert ring.dropped == 0

    def test_filtered(self):
        with decisions.collecting() as ring:
            decisions.emit(make_event(t=0, view="a"))
            decisions.emit(make_event(t=1, view="a"))
            decisions.emit(make_event(t=1, view="b"))
        assert [e.view for e in ring.events() if e.view == "a"] == ["a", "a"]
        assert [e.t for e in ring.events(t=1)] == [1, 1]
        assert [e.view for e in ring.events(t=1)] == ["a", "b"]
        assert ring.events(t=7) == []


class TestGlobalSinkAndScope:
    def test_inactive_by_default(self):
        assert not events.wanted("decision")
        assert not decisions.active()
        assert (
            decisions.emit_policy_decision(
                "NAIVE", 0, (1,), (LinearCost(1.0),), 2.0, (0,), "noop"
            )
            is None
        )

    def test_collecting_installs_and_restores(self):
        with decisions.collecting() as ring:
            assert events.installed().rings["decision"] is ring
            assert decisions.active()
        assert "decision" not in events.installed().rings
        assert not decisions.active()

    def test_set_decision_log_returns_previous(self, event_log):
        # Installing an event log is what setting a decision log became.
        with decisions.collecting() as ring:
            assert event_log.rings["decision"] is ring
            with decisions.collecting() as nested:
                assert nested is ring  # joined, not shadowed
            assert decisions.active()
        assert not decisions.active()

    def test_scope_tags_and_restores(self):
        assert events.current_step() == (None, None, "simulator")
        with events.step("min_cost", 3):
            assert events.current_step() == ("min_cost", 3, "ivm")
            with events.step("inner", 4):
                assert events.current_step() == ("inner", 4, "ivm")
            assert events.current_step() == ("min_cost", 3, "ivm")
            with pytest.raises(RuntimeError), events.step("doomed", 5):
                raise RuntimeError("inside the step")
            assert events.current_step() == ("min_cost", 3, "ivm")
        assert events.current_step() == (None, None, "simulator")

    def test_emitted_event_carries_scope(self):
        with decisions.collecting() as log:
            with events.step("v1", 0):
                decisions.emit_policy_decision(
                    "NAIVE", 0, (1,), (LinearCost(1.0),), 2.0, (1,), "r"
                )
            decisions.emit_policy_decision(
                "NAIVE", 1, (1,), (LinearCost(1.0),), 2.0, (1,), "r"
            )
        tagged, bare = log.events()
        assert (tagged.view, tagged.source) == ("v1", "ivm")
        assert (bare.view, bare.source) == (None, "simulator")


class TestMetrics:
    def test_emission_feeds_planner_counters(self):
        with obs.recording() as recorder:
            assert decisions.active()  # recorder alone activates tracing
            decisions.emit_policy_decision(
                "NAIVE",
                0,
                (2,),
                (LinearCost(1.0),),
                2.0,
                (2,),
                "flush",
                candidates=(CandidateAction((2,), 2.0),),
            )
            decisions.emit_policy_decision(
                "NAIVE", 1, (1,), (LinearCost(1.0),), 2.0, (0,), "defer"
            )
        snap = recorder.registry.snapshot()
        assert snap["planner.decisions.emitted"]["value"] == 2
        assert snap["planner.decisions.flush"]["value"] == 1
        assert snap["planner.decisions.defer"]["value"] == 1
        assert snap["planner.decisions.candidates"]["count"] == 2
        assert snap["planner.decisions.predicted_ms"]["max"] == 2.0

    def test_no_log_no_recorder_is_a_noop(self):
        # active() is False: no event object is even constructed.
        assert (
            decisions.emit_policy_decision(
                "ONLINE", 0, (1,), (LinearCost(1.0),), 9.0, (0,), "r"
            )
            is None
        )


class TestPolicyEmission:
    COSTS = (LinearCost(slope=1.0, setup=0.5),)

    def test_naive_emits_flush_and_defer(self):
        policy = NaivePolicy()
        policy.reset(self.COSTS, 2.0)
        with decisions.collecting() as log:
            assert policy.decide(0, (1,)) == (0,)  # f=1.5 <= 2.0
            assert policy.decide(1, (3,)) == (3,)  # f=3.5 > 2.0
        deferred, flushed = log.events()
        assert deferred.policy == "NAIVE" and not deferred.is_flush
        assert flushed.is_flush and flushed.chosen == (3,)
        assert flushed.predicted_ms == pytest.approx(3.5)
        assert len(flushed.candidates) == 2  # defer vs flush-all
        assert "flush everything" in flushed.rationale

    def test_online_emits_scored_candidates(self):
        policy = OnlinePolicy()
        policy.reset(self.COSTS, 2.0)
        with decisions.collecting() as log:
            policy.observe(0, (3,))
            action = policy.decide(0, (3,))
        assert any(action)
        (event,) = [e for e in log.events() if e.is_flush]
        assert event.policy == "ONLINE"
        assert event.candidates  # every weighed batch is recorded
        chosen = [c for c in event.candidates if c.action == event.chosen]
        assert len(chosen) == 1
        assert chosen[0].score is not None  # ONLINE's H
        assert "min H over" in event.rationale

    def test_receding_outer_decision_wins_the_join_slot(self):
        policy = RecedingHorizonPolicy(window=4)
        problem = small_problem(horizon=5)
        with decisions.collecting() as log:
            trace = simulate_policy(problem, policy)
        flushes = [
            e for e in log.events() if e.policy == "RECEDING" and e.is_flush
        ]
        assert flushes, "receding never replanned on a full state"
        for event in flushes:
            # The nested A* emitted its OPT_LGM event during the same
            # decide(), as a plan (t=-1): the step's one event, the one
            # `repro why` hangs the step's flushes under, is the outer one.
            assert log.events(t=event.t) == [event]
        assert any(e.policy == "OPT_LGM" for e in log.events())
        assert trace.total_cost > 0

    def test_forced_horizon_refresh_emits_no_decision(self):
        problem = small_problem(horizon=3)
        with decisions.collecting() as log:
            simulate_policy(problem, NaivePolicy())
        assert {e.t for e in log.events()} == set(range(problem.horizon))

    def test_astar_reports_its_plan(self):
        problem = small_problem(horizon=4)
        with decisions.collecting() as log:
            result = find_optimal_lgm_plan(problem)
        events = [e for e in log.events() if e.policy == "OPT_LGM"]
        assert len(events) == 1
        event = events[0]
        assert event.t == -1  # a plan, not a step decision
        assert f"cost={result.cost:.3f}" in event.rationale
        assert "expanded=" in event.rationale


class TestGoldenTrail:
    def test_render_joined_flush_golden(self):
        event = DecisionEvent(
            t=3,
            policy="ONLINE",
            view="min_cost",
            source="ivm",
            backlog=(2, 1),
            backlog_ms=(3.0, 2.5),
            chosen=(2, 0),
            chosen_ms=(3.0, 0.0),
            predicted_ms=3.0,
            limit=4.0,
            rationale="min H over 2 candidate(s)",
            candidates=(
                CandidateAction((2, 0), 3.0, score=0.5, note="time_to_full=4"),
                CandidateAction((2, 1), 5.5, score=0.75),
            ),
        )
        flushed = [CalibrationSample("min_cost", 3, "PS", 2, 3.0, 3.25)]
        assert render_decision_trail(
            [event], lines=lambda e: e.lines(flushed)
        ) == (
            "decision trail: 1 decision(s)\n"
            "t=3 ONLINE [ivm] view=min_cost: flush (2, 0)\n"
            "├─ backlog (2, 1) f_i(s)=(3.000, 2.500) ms\n"
            "├─ constraint C=4.000 ms\n"
            "├─ candidate (2, 0) f=3.000 ms H=0.500000 (time_to_full=4)"
            " [chosen]\n"
            "├─ candidate (2, 1) f=5.500 ms H=0.750000\n"
            "├─ rationale: min H over 2 candidate(s)\n"
            "└─ flushed PS k=2: actual 3.250 ms / predicted 3.000 / "
            "residual +0.250"
        )

    def test_render_bare_defer_golden(self):
        event = DecisionEvent(
            t=0,
            policy="NAIVE",
            backlog=(1, 0),
            backlog_ms=(2.0, 0.0),
            chosen=(0, 0),
            chosen_ms=(0.0, 0.0),
            predicted_ms=0.0,
            rationale="f(s)=2.000 <= C=4.000 -> defer",
        )
        assert render_decision_trail([event]) == (
            "decision trail: 1 decision(s)\n"
            "t=0 NAIVE [simulator]: defer\n"
            "├─ backlog (1, 0) f_i(s)=(2.000, 0.000) ms\n"
            "└─ rationale: f(s)=2.000 <= C=4.000 -> defer"
        )

    def test_render_filters(self):
        events = [
            make_event(t=0, view="a"),
            make_event(t=1, view="b"),
        ]
        only_b = render_decision_trail(events, view="b")
        assert "view=b" in only_b and "1 decision(s)" in only_b
        only_t0 = render_decision_trail(events, step=0)
        assert "t=0" in only_t0 and "t=1" not in only_t0

    def test_render_empty_messages(self):
        assert render_decision_trail([]) == "decision trail: no decisions"
        assert render_decision_trail([], view="v", step=3) == (
            "decision trail: no decisions matching view=v step=3"
        )
