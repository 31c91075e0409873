"""Tests for refresh-SLO verdicts: classification, the alert mechanics,
and the per-policy table read from a finished trace."""

import pytest

from repro import obs
from repro.obs import events, slo
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import execute_plan, simulate_policy
from repro.core.astar import find_optimal_lgm_plan
from repro.core.report import slo_summary
from repro.ivm.governor import ControlEvent


def _instance(steps=60, limit=12.0):
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=limit,
        arrivals=[(1, 1)] * steps,
    )


class TestClassify:
    def test_breach_above_limit(self):
        assert slo.classify(10.0, 10.1) == slo.BREACH

    def test_near_breach_band(self):
        assert slo.classify(10.0, 9.5) == slo.NEAR_BREACH
        assert slo.classify(10.0, 10.0) == slo.NEAR_BREACH

    def test_comfortable_margin_is_none(self):
        assert slo.classify(10.0, 1.0) is None
        assert slo.classify(10.0, 8.9) is None

    def test_zero_limit_never_goes_dark(self):
        # A non-positive limit is clamped (with a one-time warning)
        # instead of silently disabling the near-breach band: any
        # positive cost breaches, and even zero cost scores as a
        # near-breach, so a misconfigured SLO stays loudly visible.
        slo._invalid_limit_warned = False
        with pytest.warns(RuntimeWarning, match="not positive"):
            assert slo.classify(0.0, 1.0) == slo.BREACH
        assert slo.classify(0.0, 0.0) == slo.NEAR_BREACH
        assert slo.classify(-5.0, 0.0) == slo.NEAR_BREACH
        assert slo.classify(-5.0, 0.1) == slo.BREACH

    def test_invalid_limit_warns_once(self):
        slo._invalid_limit_warned = False
        with pytest.warns(RuntimeWarning):
            slo.classify(-1.0, 0.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            slo.classify(-1.0, 0.0)  # second call: no warning raised


class TestAlertCallbacks:
    """The subscribe / unsubscribe / ``wanted`` mechanics an alert hangs
    on, on the ``actuation`` kind the governor emits."""

    def test_callbacks_fire_without_recorder(self):
        heard = []
        event = ControlEvent(3, "online", "naive", "pressure", view="v")
        assert obs.get_recorder() is None
        with events.subscribe("actuation", heard.append):
            events.emit("actuation", event)
        assert heard == [event]

    def test_scope_removes_callback(self):
        heard = []
        with events.subscribe("actuation", heard.append):
            pass
        events.emit("actuation", ControlEvent(0, "online", "naive", "r"))
        assert heard == []

    def test_remove_unknown_callback_is_noop(self):
        events.installed().unsubscribe("actuation", lambda e: None)

    def test_active_follows_add_and_remove(self):
        log = events.installed()
        first, second = (lambda e: None), (lambda e: None)
        assert not events.wanted("actuation")
        log.subscribe("actuation", first)
        assert events.wanted("actuation")
        log.subscribe("actuation", second)
        log.unsubscribe("actuation", first)
        assert events.wanted("actuation")
        log.unsubscribe("actuation", second)
        assert not events.wanted("actuation")
        log.unsubscribe("actuation", second)  # not subscribed: no error
        assert not events.wanted("actuation")

    def test_module_guards_follow_registration(self):
        assert not events.wanted("actuation")
        with events.subscribe("actuation", lambda e: None):
            assert events.wanted("actuation")
        assert not events.wanted("actuation")


def _table_counts(table: str, name: str) -> tuple[int, int, int]:
    """The ``(steps, breaches, near)`` of ``name``'s row of a
    :func:`slo_summary` table."""
    (row,) = [line for line in table.splitlines() if line.split()[0] == name]
    steps, breaches, near = row.split()[1:4]
    return int(steps), int(breaches), int(near)


class TestSimulatorGroundTruth:
    """``slo_summary`` counts what :func:`slo.classify` says of each step
    of the finished trace's ``pre_states``."""

    def _ground_truth(self, problem, trace):
        kinds = [
            slo.classify(problem.limit, problem.refresh_cost(pre))
            for pre in trace.pre_states
        ]
        return kinds.count(slo.BREACH), kinds.count(slo.NEAR_BREACH)

    def _assert_table_counts(self, problem, traces):
        table = slo_summary(problem, traces)
        for name, trace in traces.items():
            assert _table_counts(table, name) == (
                len(trace.pre_states), *self._ground_truth(problem, trace)
            )

    @pytest.mark.parametrize("policy", [NaivePolicy(), OnlinePolicy()])
    def test_policy_breach_counter_matches_trace(self, policy):
        problem = _instance()
        trace = simulate_policy(problem, policy)
        assert len(trace.pre_states) == problem.horizon + 1
        assert sum(self._ground_truth(problem, trace)) > 0
        self._assert_table_counts(problem, {"P": trace})

    def test_plan_execution_records_slo(self):
        problem = _instance(steps=30)
        plan = find_optimal_lgm_plan(problem).plan
        self._assert_table_counts(
            problem, {"LGM": execute_plan(problem, plan)}
        )

    def test_offline_summary_agrees_with_live_counters(self):
        problem = _instance()
        traces = {
            "NAIVE": simulate_policy(problem, NaivePolicy()),
            "ONLINE": simulate_policy(problem, OnlinePolicy()),
        }
        self._assert_table_counts(problem, traces)
        assert "breaches" in slo_summary(problem, traces)

    def test_disabled_recording_records_nothing(self):
        """Observing a run neither changes its table nor records a
        verdict beside it."""
        problem = _instance(steps=20)
        bare = simulate_policy(problem, NaivePolicy())
        with obs.recording() as rec:
            observed = simulate_policy(problem, NaivePolicy())
        assert slo_summary(problem, {"N": observed}) == slo_summary(
            problem, {"N": bare}
        )
        assert not [n for n in rec.registry.names() if n.startswith("slo.")]


class TestStagedAndSummaryTable:
    def test_slo_summary_requires_traces(self):
        with pytest.raises(ValueError):
            slo_summary(_instance(), {})
