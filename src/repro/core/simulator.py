"""Plan and policy execution against a problem instance.

The paper's experimental methodology (Section 5, "Simulation and
validation") executes maintenance plans in two ways: *actually* running the
maintenance SQL on a live system, and *simulating* the plan against
measured cost functions.  This module is the simulation half; the live half
is :mod:`repro.ivm.maintainer`, and Figure 5 compares the two.

Both entry points return a :class:`~repro.core.plan.PlanTrace`, so every
experiment driver consumes one uniform result shape regardless of whether
the schedule came from a precomputed plan, an online policy, or a live run.
"""

from __future__ import annotations

import time
from operator import add

from repro import obs
from repro.core.plan import Plan, PlanTrace
from repro.core.policies import Policy, PolicyError
from repro.core.problem import (
    ProblemInstance,
    Vector,
    add_vectors,
    int_vector,
    sub_vectors,
    zero_vector,
)

#: One executed time step: (pre-action state, post-action state, f(action),
#: f(post-action state)).
_Step = tuple[Vector, Vector, float, float]


def execute_plan(problem: ProblemInstance, plan: Plan) -> PlanTrace:
    """Simulate a fully specified plan; validate it as a side effect."""
    with obs.trace("simulator.execute_plan", horizon=problem.horizon) as span:
        plan.check_valid(problem)
        refresh_cost = problem.refresh_cost
        steps: list[_Step] = []
        state = zero_vector(problem.n)
        for t, action in enumerate(plan.actions):
            pre = add_vectors(state, problem.arrivals[t])
            state = sub_vectors(pre, action)
            steps.append((pre, state, refresh_cost(action), refresh_cost(state)))
        trace = _plan_trace(plan, steps, {"source": "plan"})
        span.set(total_cost=trace.total_cost, actions=trace.action_count)
    return trace


def simulate_policy(problem: ProblemInstance, policy: Policy) -> PlanTrace:
    """Drive an online policy over the instance's arrival sequence.

    The policy sees arrivals step by step (via :meth:`Policy.observe`) and
    is asked to act at every step except the horizon, where the refresh is
    forced and the entire pre-action state is processed (``p_T = s_T``).
    Each emitted action is checked against Definition 1, and a fractional
    count is refused, never floored; violations raise
    :class:`~repro.core.policies.PolicyError` rather than being silently
    repaired, because a policy that breaks the response-time constraint is
    a bug, not a degraded mode.

    One pass: the trace is accumulated while the policy runs, and equals
    :func:`execute_plan` of the actions the policy took.  Its SLO verdicts
    are read from the trace's ``pre_states``
    (:func:`repro.core.report.slo_summary`).
    """
    policy.reset(problem.cost_functions, problem.limit)
    # Fetched once: the per-step hooks gate on them.
    recorder = obs.get_recorder()
    horizon = problem.horizon
    refresh_cost = problem.refresh_cost
    check_action = problem.check_action
    observe, decide = policy.observe, policy.decide
    record_action = policy.record_action
    state = zero_vector(problem.n)
    actions: list[Vector] = []
    steps: list[_Step] = []
    with obs.trace(
        "simulator.simulate_policy", policy=repr(policy), horizon=horizon,
    ) as span:
        # Arrivals have width n from construction, so the plain map is
        # add_vectors without its length check.
        for t, arrivals in enumerate(problem.arrivals):
            observe(t, arrivals)
            pre = tuple(map(add, state, arrivals))
            if t == horizon:
                action = pre  # forced refresh
            elif recorder is None:
                action = decide(t, pre)
            else:
                decide_start = time.perf_counter()
                action = decide(t, pre)
                recorder.observe(
                    "simulator.decide_ms",
                    (time.perf_counter() - decide_start) * 1e3,
                )
            try:  # the instance checks, never the policy being checked
                action = int_vector(action, "action", t)
                post, backlog = check_action(pre, action, t == horizon)
            except ValueError as exc:
                raise PolicyError(f"{policy!r} at t={t}: {exc}") from None
            # f(0) is 0.0 for every cost function, so a zero action's
            # refresh cost is 0.0 without pricing it.
            cost = refresh_cost(action) if any(action) else 0.0
            record_action(t, action, cost)
            if recorder is not None:
                recorder.counter("simulator.steps")
                recorder.observe("simulator.backlog", backlog)
                if any(action):
                    recorder.counter("simulator.actions")
                    recorder.observe("simulator.action_size", sum(action))
                    recorder.observe("simulator.action_cost", cost)
            actions.append(action)
            steps.append((pre, post, cost, backlog))
            state = post
        trace = _plan_trace(
            Plan(actions), steps, {"source": "policy", "policy": repr(policy)}
        )
        span.set(total_cost=trace.total_cost, actions=trace.action_count)
    return trace


def _plan_trace(plan: Plan, steps: list[_Step], metadata: dict) -> PlanTrace:
    """Fold the executed steps of ``plan`` (at least one: ``T >= 0``)."""
    pre_states, post_states, action_costs, backlogs = zip(*steps)
    total = 0.0  # left to right, never sum(): see CostModel.refresh_cost
    for cost in action_costs:
        total += cost
    return PlanTrace(
        plan=plan,
        total_cost=total,
        action_costs=action_costs,
        pre_states=pre_states,
        post_states=post_states,
        peak_refresh_cost=max(backlogs),
        metadata=metadata,
    )
