"""Unit tests for plans, validity, and the L/G/M predicates."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.plan import Plan
from repro.core.problem import ProblemInstance


@pytest.fixture
def problem():
    # f1 = 0.1k + 5, f2 = 0.25k, C = 12, arrivals (1, 2) for 6 steps.
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=12.0,
        arrivals=[(1, 2)] * 6,
    )


def flush_at_end(problem):
    """The trivially valid plan: do nothing, flush everything at T."""
    actions = [(0, 0)] * problem.horizon + [problem.total_arrivals()]
    return Plan(actions)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Plan([])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Plan([(1, 2), (1,)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Plan([(1, -2)])

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match=r"t=0 .*\(1\.5, 0\)"):
            Plan([(1.5, 0)])

    def test_integral_floats_and_bools_convert(self):
        plan = Plan([(3.0, False), (True, 2)])
        assert plan.actions == ((3, 0), (1, 2))
        assert all(type(x) is int for a in plan for x in a)

    def test_container_protocol(self):
        plan = Plan([(1, 2), (0, 0)])
        assert len(plan) == 2
        assert plan[0] == (1, 2)
        assert list(plan) == [(1, 2), (0, 0)]
        assert plan.horizon == 1
        assert plan.n == 2

    def test_equality_and_hash(self):
        assert Plan([(1, 2)]) == Plan([(1, 2)])
        assert Plan([(1, 2)]) != Plan([(2, 1)])
        assert hash(Plan([(1, 2)])) == hash(Plan([(1, 2)]))


class TestStatesAndCost:
    def test_pre_and_post_states(self, problem):
        plan = flush_at_end(problem)
        pre = plan.pre_action_states(problem)
        post = plan.post_action_states(problem)
        assert pre[0] == (1, 2)
        assert pre[-1] == (6, 12)
        assert post[-1] == (0, 0)
        assert post[2] == (3, 6)

    def test_cost_sums_actions(self, problem):
        plan = flush_at_end(problem)
        # Only the final action costs anything: f1(6) + f2(12) = 5.6 + 3.0
        assert plan.cost(problem) == pytest.approx(8.6)

    def test_action_count(self, problem):
        plan = Plan([(1, 0), (0, 2), (0, 0), (0, 0), (0, 0), (5, 10)])
        assert plan.action_count(0) == 2
        assert plan.action_count(1) == 2

    def test_shape_mismatch_rejected(self, problem):
        with pytest.raises(ValueError):
            Plan([(0, 0)]).cost(problem)
        three_wide = ProblemInstance(
            [LinearCost(1.0)] * 3, 10.0, [(0, 0, 0)] * 6
        )
        with pytest.raises(ValueError):
            flush_at_end(problem).cost(three_wide)


class TestValidity:
    def test_flush_at_end_valid_when_limit_big(self, problem):
        # Final state (6, 12) costs 8.6 <= 12, and intermediate states are
        # cheaper, so the do-nothing plan is valid.
        flush_at_end(problem).check_valid(problem)

    def test_overdraw_rejected(self, problem):
        plan = Plan([(5, 0)] + [(0, 0)] * 4 + [(1, 12)])
        with pytest.raises(ValueError, match="t=0: .* exceeds backlog"):
            plan.check_valid(problem)

    def test_full_post_state_rejected(self):
        prob = ProblemInstance(
            [LinearCost(slope=1.0)], limit=3.0, arrivals=[(2,)] * 4
        )
        # Doing nothing leaves 4 pending at t=1: f = 4 > 3.
        plan = Plan([(0,), (0,), (0,), (8,)])
        with pytest.raises(ValueError, match="t=1: .* violates C=3"):
            plan.check_valid(prob)

    def test_nonempty_final_state_rejected(self, problem):
        plan = Plan([(0, 0)] * 5 + [(6, 11)])  # leaves one behind
        with pytest.raises(ValueError, match="empty all delta tables"):
            plan.check_valid(problem)

    def test_is_valid_boolean(self, problem):
        flush_at_end(problem).check_valid(problem)
        with pytest.raises(ValueError):
            Plan([(9, 9)] * 6).check_valid(problem)


class TestStructuralPredicates:
    def test_flush_at_end_is_lazy(self, problem):
        # No intermediate state is full, and the plan never acts before T.
        assert flush_at_end(problem).is_lazy(problem)

    def test_early_action_on_nonfull_state_not_lazy(self, problem):
        plan = Plan([(1, 2)] + [(0, 0)] * 4 + [(5, 10)])
        assert not plan.is_lazy(problem)

    def test_greedy_requires_empty_or_ignore(self, problem):
        greedy = flush_at_end(problem)
        assert greedy.is_greedy(problem)
        partial = Plan([(0, 1)] + [(0, 0)] * 4 + [(6, 11)])
        assert not partial.is_greedy(problem)

    def test_minimality(self):
        prob = ProblemInstance(
            [LinearCost(slope=1.0), LinearCost(slope=1.0)],
            limit=3.0,
            arrivals=[(2, 2), (0, 0), (2, 2)],
        )
        # At t=0 the state (2,2) costs 4 > 3: emptying one table suffices,
        # so emptying both is valid but NOT minimal.
        maximal = Plan([(2, 2), (0, 0), (2, 2)])
        maximal.check_valid(prob)
        assert not maximal.is_minimal(prob)
        minimal = Plan([(2, 0), (0, 0), (2, 4)])
        minimal.check_valid(prob)
        assert minimal.is_minimal(prob)
        # The final action is exempt from minimality.
        assert minimal.is_lgm(prob)

    def test_lgm_composite(self, problem):
        assert flush_at_end(problem).is_lgm(problem)
