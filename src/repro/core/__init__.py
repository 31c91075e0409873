"""Core algorithms from the paper: plans, cost functions, and schedulers.

This subpackage is self-contained: it depends only on the Python standard
library, and implements the paper's formal model (Section 2), the
plan-space reductions (Section 3), and all four maintenance strategies
evaluated in Section 5:

* :class:`~repro.core.naive.NaivePolicy` -- the symmetric baseline,
* :func:`~repro.core.astar.find_optimal_lgm_plan` -- A* search for the
  optimal LGM plan (Section 4.1),
* :class:`~repro.core.adapt.AdaptPolicy` -- plan adaptation for unknown
  refresh times (Section 4.2),
* :class:`~repro.core.online.OnlinePolicy` -- the online heuristic
  (Section 4.3).
"""

from repro.core.costfuncs import (
    BlockIOCost,
    ConcaveCost,
    CostFunction,
    LinearCost,
    StepCost,
    TabulatedCost,
    fit_linear,
    max_batch_under,
)
from repro.core.problem import ProblemInstance
from repro.core.plan import Plan, PlanTrace
from repro.core.actions import enumerate_greedy_minimal_actions, minimize_action
from repro.core.transforms import make_lazy_plan, make_lgm_plan
from repro.core.astar import AStarResult, find_optimal_lgm_plan
from repro.core.exhaustive import find_optimal_plan_exhaustive
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy, TimeToFullEstimator
from repro.core.adapt import AdaptPolicy, adapt_plan
from repro.core.receding import RecedingHorizonPolicy, project_arrivals
from repro.core.simulator import execute_plan, simulate_policy

__all__ = [
    "AStarResult",
    "AdaptPolicy",
    "BlockIOCost",
    "ConcaveCost",
    "CostFunction",
    "LinearCost",
    "NaivePolicy",
    "OnlinePolicy",
    "Plan",
    "PlanTrace",
    "ProblemInstance",
    "RecedingHorizonPolicy",
    "StepCost",
    "TabulatedCost",
    "TimeToFullEstimator",
    "adapt_plan",
    "enumerate_greedy_minimal_actions",
    "execute_plan",
    "find_optimal_lgm_plan",
    "find_optimal_plan_exhaustive",
    "fit_linear",
    "make_lazy_plan",
    "make_lgm_plan",
    "max_batch_under",
    "minimize_action",
    "project_arrivals",
    "simulate_policy",
]
