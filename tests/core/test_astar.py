"""Tests for the A* LGM planner (Section 4.1)."""

import random

import pytest

from repro import obs
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import BlockIOCost, ConcaveCost, LinearCost
from repro.core.exhaustive import find_optimal_lazy_plan_exhaustive
from repro.core.naive import NaivePolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import simulate_policy


def asymmetric_instance(steps=60, limit=12.0):
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=limit,
        arrivals=[(1, 1)] * steps,
    )


class TestOptimality:
    def test_plan_is_valid_and_lgm(self):
        problem = asymmetric_instance()
        result = find_optimal_lgm_plan(problem)
        result.plan.check_valid(problem)
        assert result.plan.is_lgm(problem)

    def test_cost_matches_plan_cost(self):
        problem = asymmetric_instance()
        result = find_optimal_lgm_plan(problem)
        assert result.cost == pytest.approx(result.plan.cost(problem))

    def test_beats_naive_on_asymmetric_costs(self):
        problem = asymmetric_instance()
        optimal = find_optimal_lgm_plan(problem)
        naive = simulate_policy(problem, NaivePolicy())
        assert optimal.cost < naive.total_cost

    def test_heuristic_and_dijkstra_agree(self):
        rng = random.Random(7)
        for __ in range(10):
            n = rng.randint(1, 3)
            costs = [
                LinearCost(rng.uniform(0.2, 2.0), rng.uniform(0, 6))
                for __ in range(n)
            ]
            arrivals = [
                tuple(rng.randint(0, 3) for __ in range(n))
                for __ in range(rng.randint(5, 25))
            ]
            problem = ProblemInstance(costs, rng.uniform(6, 18), arrivals)
            with_h = find_optimal_lgm_plan(problem, use_heuristic=True)
            without_h = find_optimal_lgm_plan(problem, use_heuristic=False)
            assert with_h.cost == pytest.approx(without_h.cost)

    def test_heuristic_never_expands_more_nodes(self):
        problem = asymmetric_instance(steps=80)
        with_h = find_optimal_lgm_plan(problem, use_heuristic=True)
        without_h = find_optimal_lgm_plan(problem, use_heuristic=False)
        assert with_h.expanded <= without_h.expanded

    def test_matches_exhaustive_lazy_optimum_for_greedy_friendly_cases(self):
        # With linear costs the best lazy plan is WLOG greedy & minimal
        # (Theorem 2 machinery), so A* must match the exhaustive lazy DP.
        rng = random.Random(8)
        for __ in range(8):
            n = rng.randint(1, 2)
            costs = [
                LinearCost(rng.uniform(0.3, 1.5), rng.uniform(0, 4))
                for __ in range(n)
            ]
            arrivals = [
                tuple(rng.randint(0, 2) for __ in range(n))
                for __ in range(rng.randint(4, 8))
            ]
            problem = ProblemInstance(costs, rng.uniform(4, 10), arrivals)
            astar = find_optimal_lgm_plan(problem)
            lazy = find_optimal_lazy_plan_exhaustive(problem)
            assert astar.cost == pytest.approx(lazy.cost, abs=1e-9)


class TestEdgeCases:
    def test_single_step_instance(self):
        problem = ProblemInstance([LinearCost(1.0)], 5.0, [(3,)])
        result = find_optimal_lgm_plan(problem)
        assert result.plan.actions == ((3,),)
        assert result.cost == pytest.approx(3.0)

    def test_no_arrivals_at_all(self):
        problem = ProblemInstance([LinearCost(1.0)], 5.0, [(0,)] * 5)
        result = find_optimal_lgm_plan(problem)
        assert result.cost == 0.0
        assert all(a == (0,) for a in result.plan.actions)

    def test_never_full_flushes_only_at_refresh(self):
        problem = ProblemInstance([LinearCost(1.0)], 100.0, [(1,)] * 10)
        result = find_optimal_lgm_plan(problem)
        assert result.plan.action_count(0) == 1
        assert result.plan.actions[-1] == (10,)

    def test_forced_action_every_step(self):
        # Each step's arrivals alone exceed the limit: flush every step.
        problem = ProblemInstance([LinearCost(1.0)], 2.0, [(3,)] * 4)
        result = find_optimal_lgm_plan(problem)
        assert result.plan.action_count(0) == 4

    def test_zero_limit(self):
        problem = ProblemInstance([LinearCost(1.0)], 0.0, [(1,)] * 3)
        result = find_optimal_lgm_plan(problem)
        result.plan.check_valid(problem)
        assert result.plan.action_count(0) == 3

    def test_non_concave_costs(self):
        problem = ProblemInstance(
            [BlockIOCost(io_cost=4.0, block_size=3)], 8.0, [(2,)] * 8
        )
        result = find_optimal_lgm_plan(problem)
        result.plan.check_valid(problem)

    def test_concave_costs(self):
        problem = ProblemInstance(
            [ConcaveCost(coeff=3.0)], 9.0, [(2,)] * 8
        )
        result = find_optimal_lgm_plan(problem)
        result.plan.check_valid(problem)

    def test_search_statistics_populated(self):
        result = find_optimal_lgm_plan(asymmetric_instance())
        assert result.expanded >= 1
        assert result.generated >= result.expanded


class TestBoundaryProbes:
    def test_remembered_gap_pins_the_probe_count(self):
        # Uniform arrivals: a state's boundary always lies the same number
        # of steps ahead, so once a state has galloped its gap is exact and
        # every later expansion of it probes at most twice (the gap and
        # the step before it).
        problem = ProblemInstance(
            [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
            limit=12.0,
            arrivals=[(3, 2)] * 121,
        )
        with obs.recording() as rec:
            result = find_optimal_lgm_plan(problem)
        assert (result.expanded, result.generated) == (1448, 1835)
        assert result.probes == 2775
        assert result.probes <= 2 * result.expanded
        assert rec.registry.get("astar.probes").value == result.probes
