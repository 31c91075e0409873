"""Tests for refresh-SLO tracking: metrics, callbacks, ground truth."""

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


class TestObserveRefresh:
    def test_records_margin_metrics(self):
        with obs.recording() as rec:
            slo.observe_refresh(10.0, 4.0, t=3, source="test")
        registry = rec.registry
        assert registry.get("slo.steps").value == 1
        assert registry.get("slo.refresh_margin").value == 6.0
        assert registry.get("slo.limit").value == 10.0
        assert registry.get("slo.refresh_margin.step").count == 1
        assert registry.get("slo.breaches") is None

    def test_breach_and_near_breach_counters(self):
        with obs.recording() as rec:
            slo.observe_refresh(10.0, 11.0)
            slo.observe_refresh(10.0, 9.5)
            slo.observe_refresh(10.0, 2.0)
        assert rec.registry.get("slo.breaches").value == 1
        assert rec.registry.get("slo.near_breaches").value == 1
        assert rec.registry.get("slo.steps").value == 3

    def test_event_returned_with_margin(self):
        event = slo.observe_refresh(10.0, 12.5, t=7, source="unit")
        assert event.kind == slo.BREACH
        assert event.margin == pytest.approx(-2.5)
        assert "unit" in str(event) and "t=7" in str(event)

    def test_no_recorder_is_safe(self):
        assert obs.get_recorder() is None
        assert slo.observe_refresh(10.0, 1.0) is None


class TestAlertCallbacks:
    def test_callbacks_fire_without_recorder(self):
        heard = []
        with events.subscribe("slo", heard.append):
            slo.observe_refresh(10.0, 11.0, source="broker")
            slo.observe_refresh(10.0, 1.0)
        assert len(heard) == 1
        assert heard[0].kind == slo.BREACH
        assert heard[0].source == "broker"

    def test_scope_removes_callback(self):
        heard = []
        with events.subscribe("slo", heard.append):
            pass
        slo.observe_refresh(10.0, 11.0)
        assert heard == []

    def test_remove_unknown_callback_is_noop(self):
        events.installed().unsubscribe("slo", lambda e: None)

    def test_active_follows_add_and_remove(self):
        log = events.installed()
        first, second = (lambda e: None), (lambda e: None)
        assert not events.wanted("slo")
        log.subscribe("slo", first)
        assert events.wanted("slo")
        log.subscribe("slo", second)
        log.unsubscribe("slo", first)
        assert events.wanted("slo")
        log.unsubscribe("slo", second)
        assert not events.wanted("slo")
        log.unsubscribe("slo", second)  # not subscribed any more: no error
        assert not events.wanted("slo")

    def test_module_guards_follow_registration(self):
        assert not events.wanted("slo")
        with events.subscribe("slo", lambda e: None):
            assert events.wanted("slo")
        assert not events.wanted("slo")


class TestCallersGateTheSame:
    """Every caller of ``observe_refresh`` observes for a recorder *or* an
    slo subscriber; the simulators used to look at the recorder only."""

    def test_simulate_policy_alerts_without_a_recorder(self):
        problem = ProblemInstance(
            # f(3,3)=9.0 rides the near-breach band, f(6,6)=15.0 breaches
            cost_functions=(LinearCost(1.0, setup=1.5),) * 2,
            limit=10.0,
            arrivals=[(3, 3)] * 6,
        )
        heard = []
        with events.subscribe("slo", heard.append):
            simulate_policy(problem, NaivePolicy())
        assert len(heard) == 6
        with obs.recording(), events.subscribe("slo", heard.append):
            simulate_policy(problem, NaivePolicy())
        assert len(heard) == 12

    def test_simulate_staged_alerts_without_a_recorder(self):
        from repro.staged.model import Pipeline, Stage
        from repro.staged.policies import NaiveStagedPolicy
        from repro.staged.simulator import simulate_staged

        pipeline = Pipeline([Stage("scan", LinearCost(slope=1.0))])
        heard = []
        with events.subscribe("slo", heard.append):
            simulate_staged(pipeline, 3.0, [3] * 6, NaiveStagedPolicy())
        assert [e.source for e in heard] == ["staged"] * 6
        with obs.recording(), events.subscribe("slo", heard.append):
            simulate_staged(pipeline, 3.0, [3] * 6, NaiveStagedPolicy())
        assert len(heard) == 12


class TestSimulatorGroundTruth:
    """The live counters must equal what the finished trace says."""

    def _ground_truth(self, problem, trace):
        costs = [problem.refresh_cost(pre) for pre in trace.pre_states]
        return (
            sum(1 for c in costs if slo.classify(problem.limit, c) == slo.BREACH),
            sum(
                1
                for c in costs
                if slo.classify(problem.limit, c) == slo.NEAR_BREACH
            ),
        )

    @pytest.mark.parametrize("policy", [NaivePolicy(), OnlinePolicy()])
    def test_policy_breach_counter_matches_trace(self, policy):
        problem = _instance()
        with obs.recording() as rec:
            trace = simulate_policy(problem, policy)
        breaches, near = self._ground_truth(problem, trace)
        counted = rec.registry.get("slo.breaches")
        near_counted = rec.registry.get("slo.near_breaches")
        assert (counted.value if counted else 0) == breaches
        assert (near_counted.value if near_counted else 0) == near
        assert rec.registry.get("slo.steps").value == problem.horizon + 1

    def test_plan_execution_records_slo(self):
        problem = _instance(steps=30)
        plan = find_optimal_lgm_plan(problem).plan
        with obs.recording() as rec:
            trace = execute_plan(problem, plan)
        breaches, _ = self._ground_truth(problem, trace)
        counted = rec.registry.get("slo.breaches")
        assert (counted.value if counted else 0) == breaches

    def test_offline_summary_agrees_with_live_counters(self):
        problem = _instance()
        with obs.recording() as rec:
            traces = {
                "NAIVE": simulate_policy(problem, NaivePolicy()),
                "ONLINE": simulate_policy(problem, OnlinePolicy()),
            }
        table = slo_summary(problem, traces)
        total = sum(
            self._ground_truth(problem, t)[0] for t in traces.values()
        )
        counted = rec.registry.get("slo.breaches")
        assert (counted.value if counted else 0) == total
        assert "NAIVE" in table and "ONLINE" in table
        assert "breaches" in table

    def test_disabled_recording_records_nothing(self):
        problem = _instance(steps=20)
        simulate_policy(problem, NaivePolicy())  # must not raise


class TestStagedAndSummaryTable:
    def test_slo_summary_requires_traces(self):
        with pytest.raises(ValueError):
            slo_summary(_instance(), {})

    def test_staged_simulator_records_slo(self):
        from repro.staged.model import Pipeline, Stage
        from repro.staged.policies import NaiveStagedPolicy
        from repro.staged.simulator import simulate_staged

        pipeline = Pipeline(
            [
                Stage("scan", LinearCost(slope=1.0)),
                Stage("probe", LinearCost(slope=0.5)),
            ]
        )
        with obs.recording() as rec:
            simulate_staged(
                pipeline, 100.0, [3, 3, 3, 3], NaiveStagedPolicy()
            )
        assert rec.registry.get("slo.steps").value == 4
