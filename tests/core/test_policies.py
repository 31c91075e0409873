"""Tests for NAIVE, ONLINE, ADAPT, ReplayPolicy and the simulator."""

import pytest

from repro.core.adapt import AdaptPolicy, adapt_plan
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import EWMA_ALPHA, OnlinePolicy, TimeToFullEstimator
from repro.core.plan import Plan
from repro.core.policies import Policy, PolicyError, ReplayPolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import execute_plan, simulate_policy


def asymmetric_instance(steps=60, limit=12.0):
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=limit,
        arrivals=[(1, 1)] * steps,
    )


class TestNaive:
    def test_never_violates_constraint(self):
        # Pre-action costs are 5 + 0.35 t after t steps: at C = 12.3 the
        # state at t = 21 costs 12.35, over C by under 1 %.
        for limit in (12.0, 12.3):
            problem = asymmetric_instance(limit=limit)
            trace = simulate_policy(problem, NaivePolicy())
            for post in trace.post_states:
                cost = sum(f(k) for f, k in zip(problem.cost_functions, post))
                assert cost <= limit + 1e-9, (limit, post)

    def test_actions_are_full_flushes(self):
        problem = asymmetric_instance()
        trace = simulate_policy(problem, NaivePolicy())
        pre = trace.plan.pre_action_states(problem)
        for t in range(problem.horizon):
            action = trace.plan.actions[t]
            if any(action):
                assert action == pre[t]

    def test_symmetric_plan_is_lazy_and_greedy_but_not_minimal(self):
        problem = asymmetric_instance()
        trace = simulate_policy(problem, NaivePolicy())
        assert trace.plan.is_lazy(problem)
        assert trace.plan.is_greedy(problem)
        assert not trace.plan.is_minimal(problem)


class TestOnline:
    def test_beats_or_matches_naive_on_asymmetric_costs(self):
        problem = asymmetric_instance()
        online = simulate_policy(problem, OnlinePolicy())
        naive = simulate_policy(problem, NaivePolicy())
        assert online.total_cost <= naive.total_cost + 1e-9

    def test_close_to_optimal_on_uniform_stream(self):
        problem = asymmetric_instance(steps=120)
        online = simulate_policy(problem, OnlinePolicy())
        optimal = find_optimal_lgm_plan(problem)
        assert online.total_cost <= 1.2 * optimal.cost

    def test_h_counts_what_was_spent_and_a_tie_goes_to_the_cheaper(self):
        # f1(k) = k, f2(k) = 2k, C = 2, rates (1, 0): pre (1, 1) costs 3.
        # Emptying R1 costs 1 and leaves (0, 1), full again in 1 step;
        # emptying R2 costs 2 and leaves (1, 0), full again in 2 steps.
        def decide(t, spent):
            policy = OnlinePolicy(
                TimeToFullEstimator(mode="fixed", fixed_rates=[1.0, 0.0])
            )
            policy.reset([LinearCost(slope=1.0), LinearCost(slope=2.0)], 2.0)
            policy.record_action(t - 1, (0, 0), spent)
            return policy.decide(t, (1, 1))

        # t = 1, F_t = 4: H = 5/2 against 6/3 (without F_t: 1/2 and 2/3).
        assert decide(1, 4.0) == (0, 1)
        # t = 4, F_t = 4: H = 5/5 against 6/6, a tie: the cheaper wins.
        assert decide(4, 4.0) == (1, 0)

    def test_spent_tracks_total(self):
        problem = asymmetric_instance()
        policy = OnlinePolicy()
        trace = simulate_policy(problem, policy)
        assert policy.spent == pytest.approx(trace.total_cost)


class TestTimeToFullEstimator:
    def test_ewma_tracks_constant_rate(self):
        est = TimeToFullEstimator(mode="ewma")
        est.reset(2)
        for __ in range(20):
            est.observe((4, 2))
        rates = est.rates()
        assert rates[0] == pytest.approx(4.0, abs=0.01)
        assert rates[1] == pytest.approx(2.0, abs=0.01)
        # The newest arrivals weigh EWMA_ALPHA.
        a = EWMA_ALPHA
        est.observe((0, 8))
        assert est.rates() == pytest.approx((a * 0 + (1 - a) * 4,
                                             a * 8 + (1 - a) * 2))

    def test_window_average(self):
        est = TimeToFullEstimator(mode="window", window=2)
        est.reset(1)
        est.observe((2,))
        est.observe((4,))
        est.observe((6,))
        assert est.rates() == (5.0,)

    def test_fixed_mode_ignores_observations(self):
        est = TimeToFullEstimator(mode="fixed", fixed_rates=[3.0])
        est.reset(1)
        est.observe((100,))
        assert est.rates() == (3.0,)

    def test_time_to_full_exact_for_linear(self):
        est = TimeToFullEstimator(mode="fixed", fixed_rates=[2.0])
        est.reset(1)
        f = LinearCost(slope=1.0)
        # state 3, rate 2/step, limit 10: full when 3 + 2h > 10 -> h = 4.
        assert est.time_to_full((3,), [f], 10.0) == 4

    def test_time_to_full_zero_when_already_full(self):
        est = TimeToFullEstimator(mode="fixed", fixed_rates=[1.0])
        est.reset(1)
        assert est.time_to_full((100,), [LinearCost(1.0)], 10.0) == 0

    def test_time_to_full_capped_with_zero_rates(self):
        est = TimeToFullEstimator(mode="fixed", fixed_rates=[0.0])
        est.reset(1)
        horizon = est.time_to_full((1,), [LinearCost(1.0)], 10.0)
        assert horizon >= 1 << 20  # effectively never

    def test_no_observations_returns_cap(self):
        est = TimeToFullEstimator(mode="ewma")
        est.reset(1)
        assert est.time_to_full((0,), [LinearCost(1.0)], 10.0) >= 1 << 20

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeToFullEstimator(mode="nope")
        with pytest.raises(ValueError):
            TimeToFullEstimator(mode="fixed")
        with pytest.raises(ValueError):
            TimeToFullEstimator(window=0)

    def test_fixed_rates_width_checked_at_reset(self):
        est = TimeToFullEstimator(mode="fixed", fixed_rates=[1.0])
        with pytest.raises(ValueError):
            est.reset(2)


class TestAdapt:
    def test_exact_estimate_matches_optimal(self):
        problem = asymmetric_instance(steps=60)
        policy = adapt_plan(problem, problem.horizon)
        trace = simulate_policy(problem, policy)
        optimal = find_optimal_lgm_plan(problem)
        assert trace.total_cost == pytest.approx(optimal.cost)

    def test_underestimated_horizon(self):
        problem = asymmetric_instance(steps=90)
        policy = adapt_plan(problem, 30)  # T0 < T: execute cyclically
        trace = simulate_policy(problem, policy)
        trace.plan.check_valid(problem)
        optimal = find_optimal_lgm_plan(problem)
        # Theorem 4 flavour: within an additive setup term per period.
        assert trace.total_cost <= optimal.cost + 4 * (5.0 + 0.0) + 1e-6

    def test_overestimated_horizon(self):
        problem = asymmetric_instance(steps=40)
        policy = adapt_plan(problem, 100)  # T0 > T: stop early, flush at T
        trace = simulate_policy(problem, policy)
        trace.plan.check_valid(problem)
        optimal = find_optimal_lgm_plan(problem)
        assert trace.total_cost <= optimal.cost + (5.0 + 0.0) + 1e-6

    def test_deviating_arrivals_trigger_remedial_action(self):
        # Plan computed for a light stream, executed on a heavy one.
        light = ProblemInstance(
            [LinearCost(1.0)], 10.0, [(1,)] * 20
        )
        heavy = ProblemInstance(
            [LinearCost(1.0)], 10.0, [(4,)] * 20
        )
        plan = find_optimal_lgm_plan(light).plan
        policy = AdaptPolicy(plan)
        trace = simulate_policy(heavy, policy)
        trace.plan.check_valid(heavy)
        assert policy.deviations > 0

    def test_negative_estimate_rejected(self):
        problem = asymmetric_instance()
        with pytest.raises(ValueError):
            adapt_plan(problem, -1)


class TestReplayPolicy:
    def test_replays_plan_exactly(self):
        problem = asymmetric_instance()
        optimal = find_optimal_lgm_plan(problem)
        trace = simulate_policy(problem, ReplayPolicy(optimal.plan.actions))
        assert trace.total_cost == pytest.approx(optimal.cost)
        assert trace.plan == optimal.plan

    def test_clamps_to_backlog(self):
        policy = ReplayPolicy([(5,), (0,)])
        policy.reset([LinearCost(1.0)], 10.0)
        assert policy.decide(0, (3,)) == (3,)

    def test_out_of_range_time(self):
        policy = ReplayPolicy([(0,)])
        policy.reset([LinearCost(1.0)], 10.0)
        with pytest.raises(PolicyError):
            policy.decide(5, (0,))


class TestCostSums:
    def test_refresh_cost_adds_left_to_right_on_every_interpreter(self):
        """``sum()`` compensates float sums on CPython >= 3.12 and returns
        1.0 here; a policy and the instance it plans for must agree on
        ``f(s)`` to the last bit whatever the interpreter."""
        costs = [LinearCost(slope=0.1)] * 10
        state = (1,) * 10
        policy = NaivePolicy()
        policy.reset(costs, 5.0)
        problem = ProblemInstance(costs, 5.0, [state])
        assert policy.refresh_cost(state) == 0.9999999999999999
        assert problem.refresh_cost(state) == 0.9999999999999999
        assert Plan([state]).cost(problem) == 0.9999999999999999


class TestSimulator:
    def test_execute_plan_matches_plan_cost(self):
        problem = asymmetric_instance()
        optimal = find_optimal_lgm_plan(problem)
        trace = execute_plan(problem, optimal.plan)
        assert trace.total_cost == pytest.approx(optimal.cost)
        assert trace.horizon == problem.horizon

    def test_policy_violating_constraint_raises(self):
        class LazyForever(Policy):
            def decide(self, t, pre_state):
                return (0,) * self.n

        problem = ProblemInstance([LinearCost(1.0)], 2.0, [(2,)] * 4)
        with pytest.raises(PolicyError, match="violates"):
            simulate_policy(problem, LazyForever())

    def test_policy_overdrawing_raises(self):
        class Overdrawer(Policy):
            def decide(self, t, pre_state):
                return tuple(s + 1 for s in pre_state)

        problem = ProblemInstance([LinearCost(1.0)], 10.0, [(1,)] * 3)
        with pytest.raises(PolicyError, match="exceeds backlog"):
            simulate_policy(problem, Overdrawer())

    def test_fractional_action_is_refused_not_floored(self):
        class Fractional(Policy):
            def decide(self, t, pre_state):
                return (3.25,) if pre_state == (6,) else (0,)

        # Floored, (3,) then the forced (3,) would cost 8.0 and pass.
        problem = ProblemInstance([LinearCost(1.0, 1.0)], 5.0, [(6,), (0,)])
        with pytest.raises(
            PolicyError,
            match=r"Fractional.* at t=0: action at t=0 has non-integer "
            r"components: \(3\.25,\)",
        ):
            simulate_policy(problem, Fractional())

    def test_trace_statistics(self):
        problem = asymmetric_instance(steps=30)
        trace = simulate_policy(problem, NaivePolicy())
        assert trace.total_cost == pytest.approx(sum(trace.action_costs))
        assert trace.horizon == problem.horizon
        assert trace.cost_per_modification() == pytest.approx(
            trace.total_cost / 60
        )
        assert len(trace.action_costs) == problem.horizon + 1
