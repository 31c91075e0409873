"""Additional simulator and policy-lifecycle tests."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import simulate_policy


@pytest.fixture
def problem():
    return ProblemInstance(
        [LinearCost(0.1, 5.0), LinearCost(0.25)], 12.0, [(1, 1)] * 30
    )


class TestPolicyLifecycle:
    def test_reset_true_gives_identical_reruns(self, problem):
        policy = OnlinePolicy()
        first = simulate_policy(problem, policy)
        second = simulate_policy(problem, policy)
        assert first.total_cost == pytest.approx(second.total_cost)
        assert first.plan == second.plan

    def test_policies_are_reusable_across_instances(self):
        policy = NaivePolicy()
        for steps in (10, 20):
            problem = ProblemInstance(
                [LinearCost(1.0)], 5.0, [(1,)] * steps
            )
            trace = simulate_policy(problem, policy)
            trace.plan.check_valid(problem)

    def test_metadata_records_policy(self, problem):
        trace = simulate_policy(problem, NaivePolicy())
        assert trace.metadata["source"] == "policy"
        assert "NaivePolicy" in trace.metadata["policy"]


class TestDegenerateInstances:
    def test_single_step_forced_refresh(self):
        problem = ProblemInstance([LinearCost(1.0)], 100.0, [(3,)])
        trace = simulate_policy(problem, NaivePolicy())
        assert trace.plan.actions == ((3,),)

    def test_all_silent_steps(self):
        problem = ProblemInstance([LinearCost(1.0)], 5.0, [(0,)] * 10)
        trace = simulate_policy(problem, OnlinePolicy())
        assert trace.total_cost == 0.0
        assert trace.action_count == 0

    def test_zero_limit_forces_flush_every_arrival(self):
        problem = ProblemInstance([LinearCost(1.0)], 0.0, [(1,)] * 6)
        trace = simulate_policy(problem, NaivePolicy())
        assert trace.action_count == 6
        assert trace.peak_refresh_cost == 0.0

    def test_heavy_single_burst(self):
        problem = ProblemInstance(
            [LinearCost(0.5, 2.0)], 10.0, [(0,), (40,), (0,), (0,)]
        )
        trace = simulate_policy(problem, OnlinePolicy())
        trace.plan.check_valid(problem)
        # The burst must be processed the moment it arrives (it alone
        # exceeds the budget), then nothing else happens.
        assert trace.plan.actions[1] == (40,)
