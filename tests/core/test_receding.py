"""Tests for the receding-horizon re-planning policy."""

import pytest

from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.problem import ProblemInstance
from repro.core.receding import RecedingHorizonPolicy, project_arrivals
from repro.core.simulator import simulate_policy


class TestProjectArrivals:
    def test_integer_rates_exact(self):
        assert project_arrivals((2.0, 1.0), 3) == [(2, 1)] * 3

    def test_fractional_rates_accumulate(self):
        seq = project_arrivals((0.25,), 8)
        assert sum(row[0] for row in seq) == 2
        assert all(row[0] in (0, 1) for row in seq)

    def test_long_run_rate_matches(self):
        seq = project_arrivals((1.5, 0.1), 100)
        assert sum(row[0] for row in seq) == 150
        assert sum(row[1] for row in seq) == 10

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            project_arrivals((1.0,), 0)


class TestRecedingHorizonPolicy:
    def make_problem(self, horizon=200):
        return ProblemInstance(
            [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
            limit=12.0,
            arrivals=[(1, 1)] * horizon,
        )

    def test_optimal_on_uniform_arrivals(self):
        """With exact rate estimates, MPC matches OPT_LGM closely."""
        problem = self.make_problem(horizon=150)
        policy = RecedingHorizonPolicy(window=80)
        trace = simulate_policy(problem, policy)
        optimal = find_optimal_lgm_plan(problem)
        assert trace.total_cost <= 1.02 * optimal.cost
        assert policy.replans > 0

    def test_replans_reset(self):
        problem = self.make_problem(horizon=80)
        policy = RecedingHorizonPolicy(window=40)
        simulate_policy(problem, policy)
        first = policy.replans
        simulate_policy(problem, policy)  # every run resets the policy
        assert policy.replans == first

    def test_bad_window(self):
        with pytest.raises(ValueError):
            RecedingHorizonPolicy(window=0)
