"""ADAPT: reusing a plan optimized for an estimated refresh time (Sec 4.2).

The A* search needs the refresh time ``T`` in advance.  ADAPT relaxes
that: optimize an LGM plan ``Q_T0`` for an *estimated* refresh time ``T_0``
and execute it regardless of the actual refresh time ``T``:

* if ``T < T_0``: stop executing ``Q_T0`` at ``T`` and process everything
  outstanding (the forced final refresh);
* if ``T > T_0``: execute ``Q_T0`` repeatedly, period ``T_0 + 1`` (the plan
  ends with a full flush at its own horizon, so delta tables are empty at
  each period boundary), then flush at ``T``.

For linear cost functions Theorem 4 bounds the adapted plan's cost by
``OPT_T + sum_i b_i`` when ``T < T_0`` and ``OPT_T + ceil(T/T_0) * sum_i
b_i`` when ``T > T_0`` (assuming the arrival sequence is periodic with
period ``T_0``).

Implementation note: :class:`AdaptPolicy` replays the precomputed schedule
through the standard online-policy interface so the same simulator drives
it.  When live arrivals deviate from the planned sequence (which the
theorem does not cover but reality produces), the policy clamps the
scheduled action to the available backlog and, if the result would violate
the constraint, falls back to a minimal greedy remedial action -- a
best-effort extension the paper leaves implicit.
"""

from __future__ import annotations

from repro.core.actions import minimize_action
from repro.core.astar import find_optimal_lgm_plan
from repro.core.plan import Plan
from repro.core.policies import Policy
from repro.core.problem import ProblemInstance, Vector


class AdaptPolicy(Policy):
    """Execute a precomputed plan ``Q_T0`` cyclically at runtime."""

    def __init__(self, plan_t0: Plan):
        self.plan_t0 = plan_t0
        self.deviations = 0  # times the live state forced a remedial action

    def decide(self, t: int, pre_state: Vector) -> Vector:
        period = self.plan_t0.horizon + 1
        scheduled = self.plan_t0.actions[t % period]
        # Clamp to what has actually accumulated.
        action = tuple(min(p, s) for p, s in zip(scheduled, pre_state))
        post = tuple(s - a for s, a in zip(pre_state, action))
        if not self.is_full(post):
            return action
        # Live arrivals outran the planned sequence: take a minimal greedy
        # remedial action instead (full flush minimized).
        self.deviations += 1
        return minimize_action(pre_state, pre_state, self)

    def __repr__(self) -> str:
        return f"AdaptPolicy(T0={self.plan_t0.horizon})"


def adapt_plan(problem: ProblemInstance, estimated_horizon: int) -> AdaptPolicy:
    """Build an :class:`AdaptPolicy` for ``problem`` from an estimate ``T_0``.

    Computes the optimal LGM plan for the instance restricted (or
    periodically extended) to horizon ``T_0`` and wraps it for cyclic
    execution.  The returned policy can then be run against the *actual*
    instance with :func:`repro.core.simulator.simulate_policy`.
    """
    if estimated_horizon < 0:
        raise ValueError(f"estimated horizon must be >= 0, got {estimated_horizon}")
    if estimated_horizon <= problem.horizon:
        estimate = problem.truncated(estimated_horizon)
    else:
        estimate = problem.extended_periodic(estimated_horizon)
    result = find_optimal_lgm_plan(estimate)
    return AdaptPolicy(result.plan)
