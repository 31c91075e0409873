"""Data-warehouse deferred maintenance: policy shoot-out on a live system.

A warehouse keeps the paper's MIN(supplycost) summary view over TPC-R.
Analysts demand that an on-request refresh never takes more than C
(simulated) milliseconds.  Feeds apply a steady trickle of updates: many
PartSupp supplycost changes, occasional Supplier reassignments.

We run the *same* feed against four scheduling strategies -- EAGER
(maintain immediately), NAIVE (the traditional deferred approach), ADAPT,
and ONLINE -- each on its own copy of the warehouse, and compare the
measured maintenance cost and the worst observed refresh backlog.

Run:  python examples/warehouse_refresh.py
"""

from repro.core.adapt import adapt_plan
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy
from repro.core.problem import ProblemInstance
from repro.engine import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.ivm import MaterializedView, ViewMaintainer, measure_cost_function
from repro.tpcr import PartSuppCostUpdater, SupplierNationUpdater, load_tpcr

SCALE = 0.01
HORIZON = 120
FEED = (40, 1)  # PartSupp / Supplier modifications per step


class EagerPolicy(Policy):
    """Immediate maintenance: process everything at every step."""

    def decide(self, t, pre_state):
        return pre_state

    def __repr__(self):
        return "EagerPolicy()"


def warehouse_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        joins=(
            JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),
            JoinSpec("N", "nation", "S.nationkey", "nationkey"),
            JoinSpec("R", "region", "N.regionkey", "regionkey"),
        ),
        filters=(col("R.name") == lit("MIDDLE EAST"),),
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )


def build_warehouse(seed: int):
    db = Database()
    load_tpcr(db, scale=SCALE, seed=19721212)
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")
    view = MaterializedView("summary", db, warehouse_spec())
    ps = PartSuppCostUpdater(db.table("partsupp"), seed=seed)
    sup = SupplierNationUpdater(db.table("supplier"), seed=seed + 1)
    return db, view, ps, sup


def main() -> None:
    # Calibrate once on a scratch warehouse.
    __, scratch_view, scratch_ps, scratch_sup = build_warehouse(seed=900)
    f_ps = measure_cost_function(
        scratch_view, "PS", (10, 40, 120), scratch_ps
    ).tabulated
    f_s = measure_cost_function(
        scratch_view, "S", (5, 15, 30), scratch_sup
    ).tabulated
    limit = f_s(25) * 1.2
    print(f"calibrated; refresh budget C = {limit:.0f} ms\n")

    arrivals = [FEED] * (HORIZON + 1)
    problem = ProblemInstance((f_ps, f_s), limit, arrivals)

    strategies = [
        ("EAGER", EagerPolicy()),
        ("NAIVE", NaivePolicy()),
        ("ADAPT", adapt_plan(problem, HORIZON // 2)),
        ("ONLINE", OnlinePolicy()),
    ]

    print(f"{'strategy':8s} {'maintenance ms':>15s} {'actions':>8s} "
          f"{'peak backlog ms':>16s} {'refresh <= C':>12s}")
    results = {}
    for name, policy in strategies:
        __, view, ps, sup = build_warehouse(seed=77)  # identical feeds
        maintainer = ViewMaintainer(
            view, (f_ps, f_s), limit=limit, policy=policy,
            scheduled_aliases=("PS", "S"),
        )
        peak_backlog = 0.0
        for t in range(HORIZON + 1):
            ps.apply(FEED[0])
            sup.apply(FEED[1])
            if t == HORIZON:
                maintainer.refresh(t)
            else:
                entry = maintainer.step(t)
                post = tuple(
                    s - a for s, a in zip(entry.pre_state, entry.action)
                )
                peak_backlog = max(
                    peak_backlog, maintainer.predicted_refresh_cost(post)
                )
        assert view.contents() == view.recompute()
        total = maintainer.ledger.total_sim_ms
        results[name] = total
        print(
            f"{name:8s} {total:15.0f} {maintainer.ledger.action_count:8d} "
            f"{peak_backlog:16.0f} {'yes' if peak_backlog <= limit else 'NO':>12s}"
        )

    print(
        f"\nONLINE saves {100 * (1 - results['ONLINE'] / results['NAIVE']):.0f}% "
        f"over NAIVE and {100 * (1 - results['ONLINE'] / results['EAGER']):.0f}% "
        f"over EAGER, with the same refresh guarantee."
    )


if __name__ == "__main__":
    main()
