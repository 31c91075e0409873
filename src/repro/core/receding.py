"""Receding-horizon re-planning: an MPC-style policy (extension).

Sits between the paper's ONLINE (no planning, one-step amortized greedy)
and OPT_LGM (full advance knowledge): whenever forced to act, project the
arrival process ``window`` steps ahead from estimated rates, solve that
projected instance *optimally* with the A* planner, and execute the
resulting first action.  Re-planning happens at every forced action, so
estimation errors self-correct -- classic model-predictive control.

Costs one A* solve per forced action (milliseconds at window ~100 on the
paper's instances; the LGM reductions are what make this affordable).
The re-planning ablation (`repro.experiments.ablations2`) measures what
the extra work buys over ONLINE.
"""

from __future__ import annotations

from repro.core.astar import find_optimal_lgm_plan
from repro.core.online import TimeToFullEstimator
from repro.core.policies import Policy
from repro.core.problem import ProblemInstance, Vector, zero_vector
from repro.obs import decisions


def project_arrivals(
    rates: tuple[float, ...], steps: int
) -> list[tuple[int, ...]]:
    """Integer per-step arrivals matching fractional rates in the long run.

    Cumulative rounding: table ``i`` receives ``round((t+1) * r_i) -
    round(t * r_i)`` modifications at step ``t``, so a rate of 0.25 yields
    one arrival every fourth step instead of rounding to zero forever.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    out = []
    previous = [0] * len(rates)
    for t in range(1, steps + 1):
        current = [round(t * r) for r in rates]
        out.append(
            tuple(c - p for c, p in zip(current, previous))
        )
        previous = current
    return out


class RecedingHorizonPolicy(Policy):
    """Re-plan optimally over a projected window at every forced action.

    Parameters
    ----------
    window:
        Projection length in steps.  Longer windows approximate the true
        instance better (and cost more per re-plan); at the paper's
        batching head-room, a window of 2-4 flush cycles suffices.

    Arrival rates come from ONLINE's EWMA :class:`TimeToFullEstimator`.
    """

    def __init__(self, window: int = 120):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.estimator = TimeToFullEstimator()
        self.replans = 0  # observable for ablations

    def reset(self, cost_functions, limit) -> None:
        super().reset(cost_functions, limit)
        self.estimator.reset(len(self.cost_functions))
        self.replans = 0

    def observe(self, t: int, arrivals: Vector) -> None:
        self.estimator.observe(arrivals)

    def decide(self, t: int, pre_state: Vector) -> Vector:
        if not self.is_full(pre_state):
            action = zero_vector(self.n)
            if decisions.active():
                cost = self.refresh_cost(pre_state)
                decisions.emit_policy_decision(
                    "RECEDING",
                    t,
                    pre_state,
                    self.cost_functions,
                    self.limit,
                    chosen=action,
                    rationale=(
                        f"f(s)={cost:.3f} <= C={self.limit:.3f} "
                        "-> defer (lazy)"
                    ),
                )
            return action
        self.replans += 1
        rates = self.estimator.rates()
        # Projected instance: the current backlog arrives "at step 0",
        # then rate-matched arrivals for `window` further steps.  Solving
        # it optimally and taking the first action is the MPC step.
        arrivals = [tuple(pre_state)] + project_arrivals(rates, self.window)
        projected = ProblemInstance(
            self.cost_functions, self.limit, arrivals
        )
        plan = find_optimal_lgm_plan(projected).plan
        action = plan.actions[0]
        if not any(action):
            # The projected optimum defers even at a full state only when
            # the true pre-state is exactly at the limit boundary; fall
            # back to the first scheduled action to guarantee progress.
            for later in plan.actions[1:]:
                if any(later):
                    action = later
                    break
        clamped = tuple(min(a, s) for a, s in zip(action, pre_state))
        if decisions.active():
            # Emitted after the nested A* search's own OPT_LGM event,
            # which is a plan (t=-1), so this outer decision -- the action
            # that actually executes -- is the one event of its step.
            decisions.emit_policy_decision(
                "RECEDING",
                t,
                pre_state,
                self.cost_functions,
                self.limit,
                chosen=clamped,
                candidates=(
                    decisions.CandidateAction(
                        clamped,
                        self.refresh_cost(clamped),
                        note="first scheduled action of projected A* plan",
                    ),
                ),
                rationale=(
                    f"replan #{self.replans}: A* over window={self.window} "
                    f"projected at rates="
                    f"{tuple(round(r, 3) for r in rates)}"
                ),
            )
        return clamped

    def __repr__(self) -> str:
        return f"RecedingHorizonPolicy(window={self.window})"
