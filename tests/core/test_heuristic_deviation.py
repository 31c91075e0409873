"""The documented A* heuristic deviation, demonstrated empirically.

DESIGN.md records that we replaced the paper's Lemma-7 heuristic

    h(x) = sum_i floor((s[i] + K_i) / b_i) * f_i(b_i)

with a per-modification-rate bound because the floor form is not
consistent.  These tests *show* that: the paper's formula, evaluated on
the LGM plan graph of a plain linear instance, violates
``h(x) <= f(q) + h(x')`` across batch-boundary edges, while the rate
bound never does.
"""

import random

import pytest

from repro import obs
from repro.core import astar
from repro.core.astar import (
    _expand,
    check_heuristic_consistency,
    find_optimal_lgm_plan,
)
from repro.core.costfuncs import LinearCost
from repro.core.problem import ProblemInstance, zero_vector
from tests.core.reference_search import reference_search


def paper_heuristic(node, problem):
    """The paper's floor-based estimate (Lemma 7), verbatim."""
    t, state = node
    future = problem.future_arrivals(t)
    bounds = problem.batch_bounds()
    total = 0.0
    for i, f in enumerate(problem.cost_functions):
        remaining = state[i] + future[i]
        total += (remaining // bounds[i]) * f(bounds[i])
    return total


def violations_of(heuristic, problem, max_nodes=500):
    """Consistency violations of an arbitrary heuristic over the graph."""
    source = (-1, zero_vector(problem.n))
    seen = {source}
    frontier = [source]
    out = []
    while frontier and len(seen) < max_nodes:
        nxt = []
        for node in frontier:
            h_node = heuristic(node, problem)
            for successor, weight in _expand(node, problem):
                if h_node > weight + heuristic(successor, problem) + 1e-9:
                    out.append((node, successor))
                if successor not in seen:
                    seen.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return out


@pytest.fixture
def boundary_instance():
    """A setup-heavy table whose backlog crosses multiples of b_i:
    the regime where the floor estimate drops discontinuously."""
    return ProblemInstance(
        [LinearCost(slope=1.0, setup=6.0), LinearCost(slope=2.0)],
        limit=20.0,
        arrivals=[(2, 1)] * 30,
    )


class TestPaperHeuristicInconsistency:
    def test_floor_form_violates_consistency(self, boundary_instance):
        assert violations_of(paper_heuristic, boundary_instance)

    def test_rate_form_is_consistent_on_same_instance(self, boundary_instance):
        assert check_heuristic_consistency(boundary_instance) == []

    def test_rate_form_consistent_on_random_boundary_instances(self):
        rng = random.Random(77)
        for __ in range(6):
            problem = ProblemInstance(
                [
                    LinearCost(rng.uniform(0.5, 2.0), rng.uniform(2.0, 10.0)),
                    LinearCost(rng.uniform(0.5, 3.0)),
                ],
                limit=rng.uniform(10.0, 30.0),
                arrivals=[
                    (rng.randint(0, 3), rng.randint(0, 2))
                    for __ in range(rng.randint(10, 30))
                ],
            )
            assert check_heuristic_consistency(problem) == []

    def test_astar_with_inconsistent_heuristic_can_be_suboptimal(
        self, boundary_instance, monkeypatch
    ):
        """With the paper's h swapped in, the closed-set A* may return a
        more expensive plan than the exact (Dijkstra) answer -- the bug
        that motivated the deviation.

        ``find_optimal_lgm_plan`` computes the rate bound inline, so the
        search that reads ``astar._heuristic`` -- and that this patch
        steers -- is the reference one the kernel is held to
        (``test_kernel_equals_reference_search``); the kernel's own
        closed-node branch is driven by the next test.
        """
        exact = find_optimal_lgm_plan(
            boundary_instance, use_heuristic=False
        ).cost
        ours = find_optimal_lgm_plan(
            boundary_instance, use_heuristic=True
        ).cost
        assert ours == pytest.approx(exact)
        __, cost, expanded, __, reopened = reference_search(boundary_instance)
        assert (cost, reopened) == (ours, 0)

        monkeypatch.setattr(astar, "_heuristic", paper_heuristic)
        __, papers, steered, __, reopened = reference_search(boundary_instance)
        # The paper's h is admissible-ish here, so the result is at least
        # `exact`; on boundary instances with a closed set it can exceed it.
        assert papers >= exact - 1e-9
        # The patch steered the search: another expansion count, and closed
        # nodes reached again by strictly cheaper paths -- which a closed
        # set never repairs, hence "can be suboptimal".
        assert steered != expanded
        assert reopened > 0

    def test_kernel_counts_but_never_repairs_inconsistent_closed_nodes(
        self, monkeypatch
    ):
        """The kernel's ``h`` is ``sum_i (s_i + K_i) * r_i`` over the rates
        the instance hands it.  Rates 25 % above the cheapest legal batch
        rate break ``q_i * r_i <= f_i(q_i)``: closed nodes are reached again
        by strictly cheaper paths (counted, not reopened) and the returned
        plan costs more than the exact one."""
        def instance():
            return ProblemInstance(
                [LinearCost(1.0, setup=6.0), LinearCost(2.0, setup=2.0)],
                limit=10.0,
                arrivals=[(2, 1)] * 20,
            )

        def search(problem):
            with obs.recording() as rec:
                result = find_optimal_lgm_plan(problem)
            return result, rec.registry.get(
                "astar.heuristic.inconsistency_detected"
            ).value

        exact = find_optimal_lgm_plan(instance(), use_heuristic=False).cost
        result, detected = search(instance())
        assert (result.cost, detected) == (exact, 0)

        inflated = instance()
        rates = tuple(1.25 * r for r in inflated.min_batch_rates())
        monkeypatch.setattr(inflated, "min_batch_rates", lambda: rates)
        result, detected = search(inflated)
        assert detected > 0
        assert result.cost > exact + 1e-9
        result.plan.check_valid(inflated)


class TestHeuristicConsistency:
    def test_rate_heuristic_is_consistent_on_random_instances(self):
        rng = random.Random(55)
        for __ in range(8):
            n = rng.randint(1, 3)
            costs = [
                LinearCost(rng.uniform(0.2, 2.0), rng.uniform(0, 8))
                for __ in range(n)
            ]
            arrivals = [
                tuple(rng.randint(0, 3) for __ in range(n))
                for __ in range(rng.randint(5, 30))
            ]
            problem = ProblemInstance(costs, rng.uniform(5, 25), arrivals)
            assert check_heuristic_consistency(problem) == []

    def test_consistent_on_tabulated_tpcr_curves(self):
        from repro.experiments import common

        costs = common.cost_functions(scale=0.002)
        problem = common.make_problem(
            [(20, 1)] * 60, common.default_limit(costs), costs
        )
        assert check_heuristic_consistency(problem) == []
