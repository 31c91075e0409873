"""Maintenance plans and execution traces (Definitions 1-3 of the paper).

A plan is a sequence of actions ``p_0 .. p_T``, one n-vector per time step;
``p_t[i]`` says how many of the oldest modifications to remove from delta
table ``dR_i`` and propagate into the view at time ``t``.  This module
implements:

* :class:`Plan` -- an immutable action sequence with validity checking
  (Definition 1) and the Lazy / Greedy / Minimal structural predicates
  (Definitions 2 and 3);
* :class:`PlanTrace` -- the result of executing a plan or an online policy
  against a problem instance: per-step states, per-action costs, and
  summary statistics used by every experiment driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.problem import (
    ProblemInstance,
    Vector,
    add_vectors,
    int_vectors,
    sub_vectors,
    zero_vector,
)


class Plan:
    """An immutable maintenance plan ``p_0 .. p_T``.

    Plans are ordinary values: they can be compared, hashed, sliced, and
    re-validated against any compatible problem instance.
    """

    def __init__(self, actions: Sequence[Sequence[int]]):
        if not actions:
            raise ValueError("a plan must cover at least time step 0")
        self.actions: tuple[Vector, ...] = int_vectors(actions, "action")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, t: int) -> Vector:
        return self.actions[t]

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.actions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Plan) and self.actions == other.actions

    def __hash__(self) -> int:
        return hash(self.actions)

    def __repr__(self) -> str:
        nonzero = sum(1 for a in self.actions if any(a))
        return f"Plan(T={len(self.actions) - 1}, actions={nonzero})"

    @property
    def horizon(self) -> int:
        """The refresh time ``T`` covered by this plan."""
        return len(self.actions) - 1

    @property
    def n(self) -> int:
        """Number of base tables the plan addresses."""
        return len(self.actions[0])

    # -- bookkeeping over a problem instance --------------------------------

    def pre_action_states(self, problem: ProblemInstance) -> list[Vector]:
        """Pre-action state ``s_t`` at every time step under this plan."""
        self._check_shape(problem)
        states = []
        state = zero_vector(problem.n)
        for t in range(len(self.actions)):
            state = add_vectors(state, problem.arrivals[t])
            states.append(state)
            state = sub_vectors(state, self.actions[t])
        return states

    def post_action_states(self, problem: ProblemInstance) -> list[Vector]:
        """Post-action state ``s_{t+}`` at every time step under this plan."""
        return [
            sub_vectors(s, a)
            for s, a in zip(self.pre_action_states(problem), self.actions)
        ]

    def cost(self, problem: ProblemInstance) -> float:
        """Total maintenance cost ``f(P) = sum_t f(p_t)``."""
        self._check_shape(problem)
        total = 0  # left to right, never sum(): see CostModel.refresh_cost
        for action in self.actions:
            total = total + problem.refresh_cost(action)
        return total

    def action_count(self, i: int) -> int:
        """``|P(i)|``: number of actions touching base table ``i``.

        For linear costs ``f_i = a_i k + b_i`` this is the decisive plan
        statistic (Section 3.3): total cost = ``sum_i a_i K_i + b_i |P(i)|``.
        """
        return sum(1 for a in self.actions if a[i] > 0)

    # -- validity (Definition 1) ---------------------------------------------

    def check_valid(self, problem: ProblemInstance) -> None:
        """Raise ``ValueError`` with a diagnostic if the plan is invalid."""
        self._check_shape(problem)
        state = zero_vector(problem.n)
        for t, action in enumerate(self.actions):
            final = t == self.horizon  # the forced refresh
            pre = add_vectors(state, problem.arrivals[t])
            try:
                state, _ = problem.check_action(pre, action, forced=final)
            except ValueError as exc:
                raise ValueError(f"t={t}: {exc}") from None
            if final and any(state):
                raise ValueError(
                    f"t=T={t}: final action must empty all delta tables, "
                    f"residual state {state}"
                )

    # -- structural predicates (Definitions 2, 3) ----------------------------

    def is_lazy(self, problem: ProblemInstance) -> bool:
        """True when every non-zero action before ``T`` fires on a full state."""
        pre = self.pre_action_states(problem)
        for t in range(self.horizon):  # p_T is exempt
            if any(self.actions[t]) and not problem.is_full(pre[t]):
                return False
        return True

    def is_greedy(self, problem: ProblemInstance) -> bool:
        """True when every action empties-or-ignores each delta table."""
        pre = self.pre_action_states(problem)
        for t, action in enumerate(self.actions):
            for i in range(problem.n):
                if action[i] not in (0, pre[t][i]):
                    return False
        return True

    def is_minimal(self, problem: ProblemInstance) -> bool:
        """True when no pre-``T`` action could drop a component and stay valid."""
        pre = self.pre_action_states(problem)
        for t in range(self.horizon):
            action = self.actions[t]
            if not any(action):
                continue
            post = sub_vectors(pre[t], action)
            for i in range(problem.n):
                if action[i] == 0:
                    continue
                # Restoring component i must overflow the constraint;
                # otherwise the action was not minimal.
                restored = list(post)
                restored[i] += action[i]
                if not problem.is_full(tuple(restored)):
                    return False
        return True

    def is_lgm(self, problem: ProblemInstance) -> bool:
        """True when the plan is simultaneously Lazy, Greedy, and Minimal."""
        return (
            self.is_lazy(problem)
            and self.is_greedy(problem)
            and self.is_minimal(problem)
        )

    # -- helpers -------------------------------------------------------------

    def _check_shape(self, problem: ProblemInstance) -> None:
        if self.n != problem.n:
            raise ValueError(
                f"plan is over {self.n} tables but problem has {problem.n}"
            )
        if len(self.actions) != problem.horizon + 1:
            raise ValueError(
                f"plan covers {len(self.actions)} steps but problem horizon "
                f"is T={problem.horizon}"
            )


@dataclass
class PlanTrace:
    """The record of executing a plan (or online policy) on an instance.

    Produced by :func:`repro.core.simulator.execute_plan` and
    :func:`repro.core.simulator.simulate_policy`, and consumed by every
    experiment driver and benchmark.
    """

    plan: Plan
    total_cost: float
    action_costs: tuple[float, ...]
    pre_states: tuple[Vector, ...]
    post_states: tuple[Vector, ...]
    peak_refresh_cost: float
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        """The refresh time covered by the trace."""
        return self.plan.horizon

    @property
    def action_count(self) -> int:
        """Number of non-zero actions taken."""
        return sum(1 for a in self.plan.actions if any(a))

    def cost_per_modification(self) -> float:
        """Average maintenance cost per arrived modification.

        The metric used in the paper's introduction example (0.97 ms vs
        0.42 ms per modification).
        """
        total_mods = sum(sum(a) for a in self.plan.actions)
        if total_mods == 0:
            return 0.0
        return self.total_cost / total_mods
