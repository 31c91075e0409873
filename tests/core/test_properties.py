"""Hypothesis property-based tests on the core model.

Invariants exercised:

* every cost-function family is monotone and subadditive on sampled
  domains (the Section 2 assumptions);
* ``max_batch_under`` agrees with brute force;
* simulated policies always produce valid plans, never violate the
  response-time constraint, and conserve modifications (everything that
  arrives is processed exactly once);
* ``MakeLazyPlan`` / ``MakeLGMPlan`` keep their cost guarantees on
  arbitrary generated instances;
* A* <= NAIVE for linear costs (Theorem 2), A* <= 2 * NAIVE otherwise,
  with the block-cost counter-example to the former pinned;
* the flat A* kernel equals a reference search assembled from the
  retained ``_expand`` + ``_heuristic`` -- plan, cost bits, ``expanded``,
  ``generated`` -- and a search whose first full step is a linear walk;
* the single-pass simulator's trace equals ``execute_plan`` of the actions
  the policy took.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import astar
from repro.core.actions import enumerate_greedy_minimal_actions
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import (
    BlockIOCost,
    ConcaveCost,
    LinearCost,
    StepCost,
    TabulatedCost,
    max_batch_under,
)
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import execute_plan, simulate_policy
from repro.core.transforms import make_lazy_plan, make_lgm_plan
from tests.core.reference_search import linear_walk_expand, reference_search

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

linear_costs = st.builds(
    LinearCost,
    slope=st.floats(0.05, 5.0),
    setup=st.floats(0.0, 10.0),
)
block_costs = st.builds(
    BlockIOCost,
    io_cost=st.floats(0.5, 5.0),
    block_size=st.integers(1, 8),
    slope=st.floats(0.0, 1.0),
)
concave_costs = st.builds(
    ConcaveCost,
    coeff=st.floats(0.5, 5.0),
    exponent=st.floats(0.2, 1.0),
)
tabulated_costs = st.lists(
    st.tuples(st.integers(1, 50), st.floats(0.1, 20.0)),
    min_size=2,
    max_size=6,
    unique_by=lambda kv: kv[0],
).map(TabulatedCost)

any_cost = st.one_of(linear_costs, block_costs, concave_costs)


@st.composite
def instances(draw, families=any_cost, max_tables=3, max_horizon=12):
    n = draw(st.integers(1, max_tables))
    costs = [draw(families) for __ in range(n)]
    horizon = draw(st.integers(1, max_horizon))
    arrivals = [
        tuple(
            draw(st.integers(0, 3)) for __ in range(n)
        )
        for __ in range(horizon + 1)
    ]
    limit = draw(st.floats(3.0, 30.0))
    return ProblemInstance(costs, limit, arrivals)


# ----------------------------------------------------------------------
# Cost-function axioms
# ----------------------------------------------------------------------


@given(f=any_cost)
@settings(max_examples=60, deadline=None)
def test_cost_functions_satisfy_section2_axioms(f):
    assert f(0) == 0.0
    assert f.is_monotone(24)
    assert f.is_subadditive(24)


@given(samples=st.lists(
    st.tuples(st.integers(1, 40), st.floats(0.0, 10.0)),
    min_size=1, max_size=8,
))
@settings(max_examples=60, deadline=None)
def test_tabulated_costs_are_monotone_after_repair(samples):
    f = TabulatedCost(samples)
    assert f.is_monotone(60)


@given(f=any_cost, budget=st.floats(0.0, 40.0))
@settings(max_examples=60, deadline=None)
def test_max_batch_under_matches_bruteforce(f, budget):
    answer = max_batch_under(f, budget, hi=512)
    brute = 0
    for k in range(1, 513):
        if f(k) <= budget:
            brute = k
        else:
            break
    assert answer == brute


# ----------------------------------------------------------------------
# Action enumeration invariants
# ----------------------------------------------------------------------


@given(problem=instances(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_enumerated_actions_are_greedy_minimal_valid(problem, data):
    state = tuple(
        data.draw(st.integers(0, 12)) for __ in range(problem.n)
    )
    actions = list(enumerate_greedy_minimal_actions(state, problem))
    if not problem.is_full(state):
        assert actions == []
        return
    assert actions, "a full state must admit at least one action"
    for action in actions:
        post = tuple(s - a for s, a in zip(state, action))
        assert all(x >= 0 for x in post)
        assert not problem.is_full(post)
        for i, a in enumerate(action):
            assert a in (0, state[i])  # greedy
            if a:
                restored = list(post)
                restored[i] += a
                assert problem.is_full(tuple(restored))  # minimal


# ----------------------------------------------------------------------
# Policy and planner invariants
# ----------------------------------------------------------------------


@given(problem=instances())
@settings(max_examples=30, deadline=None)
def test_naive_policy_always_produces_valid_plan(problem):
    trace = simulate_policy(problem, NaivePolicy())
    trace.plan.check_valid(problem)
    # Conservation: everything that arrived got processed exactly once.
    processed = tuple(
        sum(a[i] for a in trace.plan.actions) for i in range(problem.n)
    )
    assert processed == problem.total_arrivals()


@given(problem=instances(max_tables=2, max_horizon=10))
@settings(max_examples=25, deadline=None)
def test_online_policy_always_produces_valid_plan(problem):
    trace = simulate_policy(problem, OnlinePolicy())
    trace.plan.check_valid(problem)


@given(problem=instances(families=linear_costs, max_tables=2, max_horizon=10))
@settings(max_examples=25, deadline=None)
def test_astar_not_worse_than_naive(problem):
    """Theorem 2: for linear costs some LGM plan is optimal, and NAIVE is
    a valid plan, so OPT_LGM <= NAIVE."""
    optimal = find_optimal_lgm_plan(problem)
    naive = simulate_policy(problem, NaivePolicy())
    assert optimal.cost <= naive.total_cost + 1e-6
    optimal.plan.check_valid(problem)


@given(problem=instances(max_tables=2, max_horizon=10))
@settings(max_examples=25, deadline=None)
def test_astar_within_twice_naive_for_general_costs(problem):
    """Beyond linear costs only OPT_LGM <= 2 * OPT <= 2 * NAIVE holds."""
    optimal = find_optimal_lgm_plan(problem)
    naive = simulate_policy(problem, NaivePolicy())
    assert optimal.cost <= 2 * naive.total_cost + 1e-6
    optimal.plan.check_valid(problem)


def test_naive_can_beat_astar_on_block_costs():
    """The counter-example to OPT_LGM <= NAIVE outside Theorem 2: NAIVE is
    not an LGM plan (it flushes a non-minimal action), and with block
    costs that can be cheaper than every LGM plan."""
    problem = ProblemInstance(
        [BlockIOCost(0.5, 3, 0.5)] * 2, 3.0, [(3, 3), (2, 2), (1, 1)]
    )
    assert find_optimal_lgm_plan(problem).cost == 8.5
    assert simulate_policy(problem, NaivePolicy()).total_cost == 8.0


@given(problem=instances(families=linear_costs, max_tables=2, max_horizon=10))
@settings(max_examples=25, deadline=None)
def test_transforms_preserve_guarantees(problem):
    # Use the NAIVE trace as the reference valid plan.
    reference = simulate_policy(problem, NaivePolicy()).plan
    lazy = make_lazy_plan(reference, problem)
    assert lazy.cost(problem) <= reference.cost(problem) + 1e-9
    lgm = make_lgm_plan(reference, problem)
    assert lgm.is_lgm(problem)
    assert lgm.cost(problem) <= 2 * reference.cost(problem) + 1e-9


# ----------------------------------------------------------------------
# The flat A* kernel against its reference
# ----------------------------------------------------------------------

step_costs = st.builds(
    StepCost,
    eps=st.sampled_from([1.0, 0.5, 0.25, 0.125]),
    limit=st.floats(1.0, 20.0),
)
kernel_costs = st.one_of(linear_costs, step_costs, block_costs, tabulated_costs)


@st.composite
def kernel_instances(draw):
    """Instances that reach the kernel's corners: one to three tables,
    ``T = 0``, all-zero arrival steps, ``limit = 0``.

    Shape (horizon, arrivals, limit) comes from a ``Random`` that
    hypothesis drives, so a failure shrinks and replays.  A quarter of the
    instances are long and bursty (``T`` in 120..240, bursts split by
    quiet stretches), so a state's remembered gap is too short at some
    visits and too long at others.
    """
    bursty = draw(st.integers(0, 3)) == 3
    # Three tables over a long horizon can make the h = 0 reference search
    # expand ~10^5 nodes; two keep the arm at a few thousand at most.
    n = draw(st.integers(1, 2 if bursty else 3))
    costs = [draw(kernel_costs) for __ in range(n)]
    rng = draw(st.randoms())
    if bursty:
        horizon = rng.randint(120, 240)
        arrivals = []
        while len(arrivals) <= horizon:
            arrivals += [
                tuple(rng.randint(0, 4) for __ in range(n))
                for __ in range(rng.randint(1, 12))
            ]
            arrivals += [(0,) * n] * rng.randint(0, 40)
        del arrivals[horizon + 1:]
    else:
        horizon = rng.choice([0, 1, 6, 12, 24])
        arrivals = [
            tuple(rng.randint(0, 4) for __ in range(n))
            if rng.random() < 0.7 else (0,) * n
            for __ in range(horizon + 1)
        ]
    # The limit in units of a two-modification step: at a few steps' worth
    # states fill several times per instance and offer more than one action.
    limit = rng.choice([0.0, 0.4, 1.5, 3.0, 6.0, 50.0]) * sum(
        f(2) for f in costs
    )
    return costs, limit, arrivals


@given(spec=kernel_instances(), use_heuristic=st.booleans())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_reference_search(spec, use_heuristic):
    # One fresh instance per search: each fills its own cost tables.
    result = find_optimal_lgm_plan(ProblemInstance(*spec), use_heuristic)
    got = (result.plan, result.cost.hex(), result.expanded, result.generated)
    for expand in (astar._expand, linear_walk_expand):
        plan, cost, expanded, generated, inconsistencies = reference_search(
            ProblemInstance(*spec), use_heuristic, expand
        )
        assert got == (plan, float(cost).hex(), expanded, generated)
        assert inconsistencies == 0


# ----------------------------------------------------------------------
# The single-pass simulator against execute_plan
# ----------------------------------------------------------------------


@given(
    spec=kernel_instances(),
    policy=st.sampled_from([NaivePolicy, OnlinePolicy]),
)
@settings(max_examples=60, deadline=None)
def test_policy_trace_equals_executing_its_actions(spec, policy):
    problem = ProblemInstance(*spec)
    trace = simulate_policy(problem, policy())
    replayed = execute_plan(problem, trace.plan)
    assert trace.metadata.pop("source") == "policy"
    assert replayed.metadata.pop("source") == "plan"
    del trace.metadata["policy"]
    assert trace == replayed
