"""repro -- a reproduction of "Asymmetric Batch Incremental View Maintenance".

(He, Xie, Yang, Yu; ICDE 2005.)

The package is layered bottom-up:

* :mod:`repro.engine` -- an in-memory relational engine with MVCC-lite
  snapshots, secondary indexes, joins, aggregation, and a deterministic
  cost model (the substrate replacing the paper's commercial DBMS);
* :mod:`repro.tpcr` -- a dbgen-style TPC-R data generator and the paper's
  update streams;
* :mod:`repro.ivm` -- incremental view maintenance: delta tables,
  materialized views, state-bug-safe batch propagation, a response-time-
  constrained maintainer runtime, and cost-function calibration;
* :mod:`repro.core` -- the paper's contribution: the scheduling problem
  model, LGM plan theory, the A* optimal planner, ADAPT, ONLINE, and the
  NAIVE baseline;
* :mod:`repro.workloads` -- arrival-sequence generators;
* :mod:`repro.experiments` -- one driver per paper figure plus ablations.

Quick start::

    from repro import (
        LinearCost, ProblemInstance, NaivePolicy, OnlinePolicy,
        find_optimal_lgm_plan, simulate_policy,
    )

    f_cheap = LinearCost(slope=0.25)            # indexed side: no setup
    f_batchy = LinearCost(slope=0.25, setup=200)  # scan side: big setup
    arrivals = [(1, 1)] * 1000                  # one mod per table per step
    problem = ProblemInstance([f_cheap, f_batchy], limit=350.0,
                              arrivals=arrivals)

    naive = simulate_policy(problem, NaivePolicy())
    optimal = find_optimal_lgm_plan(problem)
    print(naive.total_cost / optimal.cost)      # the asymmetric advantage
"""

from repro.core import (
    AdaptPolicy,
    AStarResult,
    BlockIOCost,
    ConcaveCost,
    CostFunction,
    LinearCost,
    NaivePolicy,
    OnlinePolicy,
    Plan,
    PlanTrace,
    ProblemInstance,
    StepCost,
    TabulatedCost,
    TimeToFullEstimator,
    adapt_plan,
    enumerate_greedy_minimal_actions,
    execute_plan,
    find_optimal_lgm_plan,
    find_optimal_plan_exhaustive,
    fit_linear,
    make_lazy_plan,
    make_lgm_plan,
    max_batch_under,
    minimize_action,
    simulate_policy,
)
from repro.core.policies import Policy, PolicyError, ReplayPolicy

__version__ = "1.0.0"

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
    "Policy",
    "PolicyError",
    "ProblemInstance",
    "ReplayPolicy",
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
    "simulate_policy",
]
