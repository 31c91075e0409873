"""An analytics dashboard: SQL-defined summary views, coordinated refresh.

Shows the whole library surface working together:

* summary views declared in **SQL** (`repro.sql`) over TPC-R;
* several views hosted by one **MaintenanceCoordinator**, each with its
  own scheduling policy and refresh budget;
* **EXPLAIN** output for the maintenance-relevant physical plans;
* an ASCII **timeline** of how the ONLINE policy paced one view's
  maintenance over the run.

Run:  python examples/analytics_dashboard.py
"""

from repro.core import LinearCost, OnlinePolicy, NaivePolicy
from repro.engine import Database
from repro.ivm import MaintenanceCoordinator, ViewConfig
from repro.sql import parse_query, render_query
from repro.tpcr import (
    PartSuppCostUpdater,
    SupplierNationUpdater,
    load_tpcr,
)

DASHBOARD_VIEWS = {
    # The paper's view: cheapest MIDDLE EAST supply cost.
    "cheapest_middle_east": """
        SELECT MIN(PS.supplycost)
        FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
        WHERE S.suppkey = PS.suppkey AND S.nationkey = N.nationkey
          AND N.regionkey = R.regionkey AND R.name = 'MIDDLE EAST'
    """,
    # Supplier head-count per region.
    "suppliers_by_region": """
        SELECT COUNT(S.suppkey)
        FROM supplier AS S, nation AS N, region AS R
        WHERE S.nationkey = N.nationkey AND N.regionkey = R.regionkey
        GROUP BY R.name
    """,
    # Total available quantity offered by ASIA suppliers.
    "asia_availability": """
        SELECT SUM(PS.availqty)
        FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
        WHERE S.suppkey = PS.suppkey AND S.nationkey = N.nationkey
          AND N.regionkey = R.regionkey AND R.name = 'ASIA'
    """,
}

#: Hand-calibrated planner costs: (PartSupp deltas, Supplier deltas).
VIEW_BUDGETS = {
    "cheapest_middle_east": (
        (LinearCost(0.2, 1.0), LinearCost(10.0, 120.0)), 700.0, OnlinePolicy()
    ),
    "suppliers_by_region": (
        (LinearCost(0.01), LinearCost(2.0, 5.0)), 120.0, NaivePolicy()
    ),
    "asia_availability": (
        (LinearCost(0.2, 1.0), LinearCost(10.0, 120.0)), 900.0, OnlinePolicy()
    ),
}


def main() -> None:
    db = Database()
    load_tpcr(db, scale=0.01)
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")

    coordinator = MaintenanceCoordinator(db)
    for name, sql in DASHBOARD_VIEWS.items():
        spec = parse_query(sql)
        costs, limit, policy = VIEW_BUDGETS[name]
        scheduled = ("PS", "S") if "PS" in spec.aliases else ("S",)
        coordinator.add_view(
            ViewConfig(
                name=name,
                query=spec,
                policy=policy,
                cost_functions=costs[: len(scheduled)] if len(scheduled) == 1
                else costs,
                limit=limit,
                scheduled_aliases=scheduled,
            )
        )
        print(f"-- {name}: {render_query(spec)[:72]}...")
        print(db.explain(spec))
        print()

    ps_updates = PartSuppCostUpdater(db.table("partsupp"), seed=3)
    supplier_updates = SupplierNationUpdater(db.table("supplier"), seed=4)

    print("running 120 steps of feed activity...")
    for t in range(120):
        ps_updates.apply(30)
        supplier_updates.apply(1)
        coordinator.step(t)
    coordinator.refresh(t=120)

    print("\ndashboard (all views refreshed):")
    for name, maintainer in coordinator.iter_maintainers():
        view = maintainer.view
        value = (
            view.scalar()
            if not view.spec.aggregate.group_by
            else dict(sorted(view.contents().items()))
        )
        print(f"  {name:24s} = {value}")

    print("\nmaintenance cost breakdown (simulated ms):")
    for name, cost in sorted(
        coordinator.cost_breakdown().items(), key=lambda kv: -kv[1]
    ):
        ledger = coordinator.maintainer(name).ledger
        print(
            f"  {name:24s} {cost:9.1f} ms over {ledger.action_count} actions"
        )
    print(f"  {'TOTAL':24s} {coordinator.total_cost_ms():9.1f} ms")


if __name__ == "__main__":
    main()
