"""Figure 5: validating the simulator against the live system.

The paper speeds up its experiments by *simulating* plan execution against
measured cost functions, and validates the simulation by also running the
same plans on the real system: "there is negligible difference between the
simulated costs and the actual ones".

We reproduce the methodology exactly:

* the **simulated** cost of a plan is computed by
  :func:`repro.core.simulator.simulate_policy` /
  :func:`~repro.core.simulator.execute_plan` against the calibrated
  (tabulated) cost functions;
* the **actual** cost executes the same plan through
  :class:`repro.ivm.maintainer.ViewMaintainer` against the live engine,
  with identical update streams (same seed), summing the engine-measured
  cost of every maintenance action.

Three plans are validated, as in the paper: NAIVE, OPT_LGM, and ONLINE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.astar import find_optimal_lgm_plan
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy, ReplayPolicy
from repro.core.simulator import simulate_policy
from repro.experiments import common
from repro.experiments.reporting import format_table
from repro.ivm.maintainer import ViewMaintainer
from repro.workloads.arrivals import uniform_arrivals


@dataclass
class ValidationRow:
    """Simulated vs live cost for one plan."""

    plan: str
    simulated_cost: float
    actual_cost: float

    @property
    def relative_error(self) -> float:
        """|simulated - actual| / actual."""
        if self.actual_cost == 0:
            return 0.0
        return abs(self.simulated_cost - self.actual_cost) / self.actual_cost


@dataclass
class Fig5Result:
    """The validation table."""

    limit: float
    horizon: int
    rows_data: list[ValidationRow]

    def rows(self) -> list[tuple[str, float, float, float]]:
        return [
            (r.plan, r.simulated_cost, r.actual_cost, r.relative_error)
            for r in self.rows_data
        ]

    def max_relative_error(self) -> float:
        """The headline validation number (paper: 'negligible')."""
        return max(r.relative_error for r in self.rows_data)

    def format(self) -> str:
        return format_table(
            f"Figure 5: simulated vs actual plan cost "
            f"(T = {self.horizon}, C = {self.limit:.0f} ms)",
            ["plan", "simulated ms", "actual ms", "rel err"],
            self.rows(),
            precision=3,
        )


def _live_cost(
    policy: Policy,
    arrivals: list[tuple[int, ...]],
    limit,
    costs,
    scale: float,
    update_seed: int,
) -> float:
    """Execute a policy against a freshly built live system."""
    setup = common.build_setup(scale=scale, update_seed=update_seed)
    maintainer = ViewMaintainer(
        setup.view,
        costs,
        limit=limit,
        policy=policy,
        scheduled_aliases=common.SCHEDULED_ALIASES,
    )
    horizon = len(arrivals) - 1
    for t, step_arrivals in enumerate(arrivals):
        setup.apply_arrivals(step_arrivals)
        if t == horizon:
            maintainer.refresh(t)
        else:
            maintainer.step(t)
    return maintainer.ledger.total_sim_ms


def run_fig5(
    scale: float = common.DEFAULT_SCALE,
    horizon: int = 100,
    update_seed: int = 505,
) -> Fig5Result:
    """Validate the simulator on NAIVE, OPT_LGM, and ONLINE."""
    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs)
    arrivals = uniform_arrivals(common.ARRIVAL_MIX, horizon + 1)
    problem = common.make_problem(arrivals, limit, costs)

    optimal = find_optimal_lgm_plan(problem)
    plans: list[tuple[str, Policy, float]] = [
        (
            "NAIVE",
            NaivePolicy(),
            simulate_policy(problem, NaivePolicy()).total_cost,
        ),
        ("OPT_LGM", ReplayPolicy(optimal.plan.actions), optimal.cost),
        (
            "ONLINE",
            OnlinePolicy(),
            simulate_policy(problem, OnlinePolicy()).total_cost,
        ),
    ]

    rows = []
    for name, live_policy, simulated in plans:
        actual = _live_cost(
            live_policy, arrivals, limit, costs, scale, update_seed
        )
        rows.append(
            ValidationRow(plan=name, simulated_cost=simulated, actual_cost=actual)
        )
    return Fig5Result(limit=limit, horizon=horizon, rows_data=rows)
