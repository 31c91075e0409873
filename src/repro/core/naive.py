"""The NAIVE symmetric baseline (Sections 1 and 5 of the paper).

Traditional deferred view maintenance batches *all* modifications and, when
the response-time constraint is about to be violated, processes *all* of
them together.  It is lazy and greedy, but deliberately not minimal: every
action empties every delta table.  All prior batch-maintenance work the
paper surveys uses this symmetric shape; the paper's contribution is
showing (and exploiting) how much asymmetric plans can beat it.
"""

from __future__ import annotations

from repro.core.policies import Policy
from repro.core.problem import Vector, zero_vector
from repro.obs import decisions


class NaivePolicy(Policy):
    """Flush every delta table whenever the pre-action state is full."""

    #: ``decide`` reads only the bound model and ``pre_state`` (its
    #: decision event aside, which a round that memoizes never emits).
    PURE_DECIDE = True

    def decide(self, t: int, pre_state: Vector) -> Vector:
        full = self.is_full(pre_state)
        action = pre_state if full else zero_vector(self.n)
        if decisions.active():
            cost = self.refresh_cost(pre_state)
            op = ">" if full else "<="
            verdict = "flush everything" if full else "defer"
            decisions.emit_policy_decision(
                "NAIVE",
                t,
                pre_state,
                self.cost_functions,
                self.limit,
                chosen=action,
                candidates=(
                    decisions.CandidateAction(
                        zero_vector(self.n), 0.0, note="defer"
                    ),
                    decisions.CandidateAction(
                        tuple(pre_state), cost, note="flush-all"
                    ),
                ),
                rationale=(
                    f"f(s)={cost:.3f} {op} C={self.limit:.3f} -> {verdict}"
                ),
            )
        return action

    def __repr__(self) -> str:
        return "NaivePolicy()"
