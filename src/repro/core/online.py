"""The ONLINE heuristic policy (Section 4.3 of the paper).

ONLINE needs no advance knowledge of the arrival sequence or the refresh
time.  When the response-time constraint is violated at time ``t`` with
pre-action state ``s_t``, it chooses among the greedy, minimal, valid
actions the one minimizing the amortized-cost figure of merit

    H(q) = (F_t + f(q)) / (t + TimeToFull(s_t - q))

where ``F_t`` is the maintenance cost already paid since the last refresh
and ``TimeToFull(s)`` predicts how many further time steps of arrivals it
takes to make state ``s`` full again.  Minimizing ``H`` greedily minimizes
the running average cost per unit time.

``TimeToFull`` requires an arrival-rate estimate; the paper maintains a
per-table recent-rate vector.  :class:`TimeToFullEstimator` implements
three estimators:

* ``"ewma"`` (default) -- exponentially weighted moving average of observed
  per-step arrivals, the newest weighing :data:`EWMA_ALPHA`; the practical
  choice;
* ``"window"`` -- plain moving average over a fixed window;
* ``"fixed"`` -- externally supplied constant rates (an oracle given the
  true process mean; used by the estimator-quality ablation to explain the
  ONLINE gap on unstable streams in Figure 7).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro import obs
from repro.obs import decisions
from repro.core.actions import enumerate_greedy_minimal_actions
from repro.core.policies import Policy
from repro.core.problem import Vector, zero_vector

_HORIZON_CAP = 1 << 22  # "never" for TimeToFull purposes

#: The EWMA estimator's smoothing factor: the weight of the newest step.
EWMA_ALPHA = 0.2


class TimeToFullEstimator:
    """Predicts how long until incoming modifications make a state full.

    Parameters
    ----------
    mode:
        ``"ewma"``, ``"window"``, or ``"fixed"`` (see module docstring).
    window:
        Window length in steps (only for ``mode="window"``).
    fixed_rates:
        Constant per-table rates (required for ``mode="fixed"``).
    """

    def __init__(
        self,
        mode: str = "ewma",
        window: int = 20,
        fixed_rates: Sequence[float] | None = None,
    ):
        if mode not in ("ewma", "window", "fixed"):
            raise ValueError(f"unknown TimeToFull mode {mode!r}")
        if mode == "fixed" and fixed_rates is None:
            raise ValueError("mode='fixed' requires fixed_rates")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.mode = mode
        self.window = window
        self._fixed = tuple(float(r) for r in fixed_rates) if fixed_rates else None
        self._rates: list[float] | None = None
        self._history: deque[Vector] = deque(maxlen=window)

    def reset(self, n: int) -> None:
        """Forget learned rates (new instance or post-refresh restart)."""
        if self.mode == "fixed":
            if self._fixed is None or len(self._fixed) != n:
                raise ValueError(
                    f"fixed_rates has wrong width for n={n}: {self._fixed!r}"
                )
            self._rates = list(self._fixed)
        else:
            self._rates = None
        self._history.clear()

    def observe(self, arrivals: Vector) -> None:
        """Fold one step's arrivals into the rate estimate."""
        if self.mode == "fixed":
            return
        if self.mode == "window":
            self._history.append(arrivals)
            n = len(arrivals)
            self._rates = [
                sum(d[i] for d in self._history) / len(self._history)
                for i in range(n)
            ]
            return
        # EWMA
        if self._rates is None:
            self._rates = [float(x) for x in arrivals]
        else:
            a = EWMA_ALPHA
            self._rates = [
                a * x + (1 - a) * r for x, r in zip(arrivals, self._rates)
            ]

    def rates(self) -> tuple[float, ...]:
        """Current per-table arrival-rate estimate."""
        if self._rates is None:
            raise RuntimeError("no observations yet; call observe() first")
        return tuple(self._rates)

    def time_to_full(
        self,
        state: Vector,
        cost_functions: Sequence[Callable[[int], float]],
        limit: float,
    ) -> int:
        """Predicted steps until ``state`` plus projected arrivals is full.

        ``cost_functions[i](k)`` prices ``k`` modifications of table ``i``:
        a :class:`~repro.core.costfuncs.CostFunction`, or a lookup in a
        :class:`~repro.core.problem.CostTable` of one.

        Projects each table forward at its estimated rate and finds, by
        galloping + binary search over the (monotone) projected refresh
        cost, the smallest step count whose projected state exceeds the
        constraint.  Returns a large cap when the projected cost never
        exceeds the limit (e.g. all rates are zero).
        """
        if self._rates is None:
            return _HORIZON_CAP
        rates = self._rates

        def projected_cost(steps: int) -> float:
            total = 0  # left to right, never sum(): see CostModel.refresh_cost
            for f, s, r in zip(cost_functions, state, rates):
                total = total + f(s + int(r * steps))
            return total

        if projected_cost(0) > limit:
            return 0
        lo, hi = 0, 1
        while hi < _HORIZON_CAP and projected_cost(hi) <= limit:
            lo, hi = hi, hi * 2
        if hi >= _HORIZON_CAP:
            return _HORIZON_CAP
        # Invariant: projected_cost(lo) <= limit < projected_cost(hi).
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if projected_cost(mid) <= limit:
                lo = mid
            else:
                hi = mid
        return hi

    def __repr__(self) -> str:
        return f"TimeToFullEstimator(mode={self.mode!r})"


class OnlinePolicy(Policy):
    """The paper's online heuristic (Section 4.3).

    Lazy by construction (acts only on full states), chooses greedy minimal
    valid actions, minimizes the amortized cost measure ``H``.  Requires no
    precomputation; bookkeeping is the running cost ``F_t`` plus the
    estimator state.
    """

    def __init__(self, estimator: TimeToFullEstimator | None = None):
        self.estimator = estimator or TimeToFullEstimator()
        self._spent = 0.0

    def reset(self, cost_functions, limit) -> None:
        super().reset(cost_functions, limit)
        self.estimator.reset(len(self.cost_functions))
        self._spent = 0.0
        #: ``f_i`` as lookups in this policy's own cost tables, for
        #: TimeToFull's probes: the same floats, one dict probe a hit.
        self._lookups = tuple(table.__getitem__ for table in self.cost_tables)

    def observe(self, t: int, arrivals: Vector) -> None:
        self.estimator.observe(arrivals)

    def record_action(self, t: int, action: Vector, cost: float) -> None:
        self._spent += cost

    @property
    def spent(self) -> float:
        """``F_t``: total maintenance cost paid since the last reset."""
        return self._spent

    def decide(self, t: int, pre_state: Vector) -> Vector:
        tracing = decisions.active()
        if not self.is_full(pre_state):
            action = zero_vector(self.n)
            if tracing:
                cost = self.refresh_cost(pre_state)
                decisions.emit_policy_decision(
                    "ONLINE",
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
        # Score every greedy minimal valid action by amortized cost H.
        best_action: Vector | None = None
        best_score = float("inf")
        best_cost = float("inf")
        scored = 0
        candidates: list[decisions.CandidateAction] = []
        for action in enumerate_greedy_minimal_actions(pre_state, self):
            scored += 1
            cost = self.refresh_cost(action)
            post = tuple(s - a for s, a in zip(pre_state, action))
            horizon = self.estimator.time_to_full(
                post, self._lookups, self.limit
            )
            denom = t + horizon
            score = (self._spent + cost) / max(denom, 1e-9)
            if tracing:
                candidates.append(
                    decisions.CandidateAction(
                        tuple(action), cost, score=score,
                        note=f"time_to_full={horizon}",
                    )
                )
            if score < best_score - 1e-12 or (
                abs(score - best_score) <= 1e-12 and cost < best_cost
            ):
                best_action, best_score, best_cost = action, score, cost
        if best_action is None:
            raise RuntimeError(
                f"no greedy minimal valid action for full state {pre_state}"
            )
        if tracing:
            decisions.emit_policy_decision(
                "ONLINE",
                t,
                pre_state,
                self.cost_functions,
                self.limit,
                chosen=best_action,
                candidates=tuple(candidates),
                rationale=(
                    f"min H over {scored} candidate(s): "
                    f"H={best_score:.6f} with f(q)={best_cost:.3f} "
                    f"(spent F_t={self._spent:.3f})"
                ),
            )
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("online.decisions")
            recorder.counter("online.candidates_scored", scored)
            predicted = self.estimator.time_to_full(
                tuple(s - a for s, a in zip(pre_state, best_action)),
                self._lookups, self.limit,
            )
            recorder.observe("online.predicted_time_to_full", predicted)
            # TimeToFull *is* a predicted steps-until-the-margin-hits-zero
            # estimate, so surface it in the SLO family too.
            recorder.observe("slo.predicted_steps_to_breach", predicted)
        return best_action

    def __repr__(self) -> str:
        return f"OnlinePolicy(estimator={self.estimator!r})"
