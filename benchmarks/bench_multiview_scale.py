"""Fleet-scale multi-view maintenance: per-view cost vs view count.

The economics claimed by the table-at-a-time refactor
(:mod:`repro.ivm.multiview`): when many views window the same base
table's ModLog, one shared blocked scan per table per round replaces a
per-view scan, and update windows that miss a view's referenced columns
are fingerprint-suppressed before the view's delta-join runs.  Both
savings grow with views-per-table, so the **per-view** simulated cost of
a shared round falls as the fleet grows, while views maintained one at
a time, each by its own standalone maintainer, stay flat.

This benchmark sweeps views-per-table over three TPC-R base tables
(partsupp, supplier, nation -- each with its own single-column updater)
up to ~2,000 views total, maintaining each fleet for a few rounds both
ways, and reports total and per-view simulated cost side by side.
Views alternate between a spec that references the updated column
(must re-join every round) and one that does not (suppressible), the mix
a real dashboard fleet would have.

Asserted invariants:

* view contents are identical between shared rounds and standalone
  maintainers at every swept fleet size;
* per-view shared cost **strictly decreases** as views-per-table grows;
* shared total cost is strictly below independent total cost at every
  point with >= 2 views per table (with a lone subscriber per table the
  two do the same scan work, so only the larger fleets are gated).
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks import write_table
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.engine.database import Database
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import (
    NationRegionUpdater,
    PartSuppCostUpdater,
    SupplierNationUpdater,
)

SCALE = 0.002  # partsupp 1.6k rows -- the sweep is about view count
BLOCK_SIZE = 4_096
ROUNDS = 4
MODS_PER_ROUND = 16  # per table per round
SWEEP = (1, 8, 64, 666)  # views per table; 666 x 3 tables ~ 2,000 views
COST = (LinearCost(slope=0.5, setup=2.0),)
LIMIT = 1.0  # NaivePolicy: any non-empty backlog flushes


def _agg(alias: str, table: str, func: str, value: str, *group: str) -> QuerySpec:
    return QuerySpec(
        base_alias=alias,
        base_table=table,
        aggregate=AggregateSpec(
            func=func, value=col(value), group_by=tuple(group)
        ),
    )


#: (alias, table, updater, sensitive spec, insensitive spec).  Each
#: updater rewrites exactly one column; the sensitive spec references it
#: (delta-join every flush), the insensitive one does not (the shared
#: scan's fingerprint suppresses the whole window).
TABLES = (
    (
        "PS",
        "partsupp",
        PartSuppCostUpdater,  # rewrites supplycost
        lambda: _agg("PS", "partsupp", "sum", "PS.supplycost", "PS.suppkey"),
        lambda: _agg("PS", "partsupp", "sum", "PS.availqty", "PS.suppkey"),
    ),
    (
        "S",
        "supplier",
        SupplierNationUpdater,  # rewrites nationkey
        lambda: _agg("S", "supplier", "count", "S.suppkey", "S.nationkey"),
        # sum over an INT column: float sums drift across the
        # delete-then-reinsert round-trip of unsuppressed rounds, which
        # would make the cross-mode contents equality flap.
        lambda: _agg("S", "supplier", "sum", "S.suppkey"),
    ),
    (
        "N",
        "nation",
        NationRegionUpdater,  # rewrites regionkey
        lambda: _agg("N", "nation", "count", "N.name", "N.regionkey"),
        lambda: _agg("N", "nation", "min", "N.nationkey"),
    ),
)


@dataclass
class SweepPoint:
    views_per_table: int
    total_views: int
    shared_ms: float
    independent_ms: float

    @property
    def shared_per_view(self) -> float:
        return self.shared_ms / self.total_views

    @property
    def independent_per_view(self) -> float:
        return self.independent_ms / self.total_views


@dataclass
class MultiviewScaleResult:
    points: list[SweepPoint]

    def format(self) -> str:
        lines = [
            f"multi-view maintenance at SF {SCALE}: 3 base tables, "
            f"{ROUNDS} rounds x {MODS_PER_ROUND} updates/table/round, "
            f"NaivePolicy, simulated ms",
            f"{'views/table':>11} {'views':>6} "
            f"{'shared':>10} {'indep':>10} "
            f"{'shared/view':>12} {'indep/view':>11}",
        ]
        for p in self.points:
            lines.append(
                f"{p.views_per_table:>11} {p.total_views:>6} "
                f"{p.shared_ms:>10.2f} {p.independent_ms:>10.2f} "
                f"{p.shared_per_view:>12.4f} {p.independent_per_view:>11.4f}"
            )
        lines.append(
            "contents identical between modes at every point; per-view "
            "shared cost falls as views-per-table rises"
        )
        return "\n".join(lines)


def _run_fleet(views_per_table: int, shared: bool) -> tuple[dict, float]:
    """Maintain one fleet; returns (per-view contents, total sim ms).

    ``shared``: under one coordinator.  Otherwise every view has its own
    standalone maintainer, stepped one after another.
    """
    db = Database(block_size=BLOCK_SIZE)
    load_tpcr(db, scale=SCALE)
    coordinator = MaintenanceCoordinator(db) if shared else None
    maintainers: dict[str, ViewMaintainer] = {}
    for alias, table, _, sensitive, insensitive in TABLES:
        for i in range(views_per_table):
            name = f"{table}_{i:04d}"
            spec = sensitive() if i % 2 == 0 else insensitive()
            if coordinator is None:
                maintainers[name] = ViewMaintainer(
                    MaterializedView(name, db, spec), COST, LIMIT,
                    NaivePolicy(), scheduled_aliases=(alias,),
                )
                continue
            coordinator.add_view(
                ViewConfig(
                    name=name,
                    query=spec,
                    policy=NaivePolicy(),
                    cost_functions=COST,
                    limit=LIMIT,
                    scheduled_aliases=(alias,),
                )
            )
            maintainers[name] = coordinator.maintainer(name)
    updaters = [
        updater(db.table(table), seed=17)
        for _, table, updater, _, _ in TABLES
    ]
    total = 0.0
    for t in range(ROUNDS):
        for updater in updaters:
            updater.apply(MODS_PER_ROUND)
        with db.counter.window() as window:
            if coordinator is None:
                for maintainer in maintainers.values():
                    maintainer.step(t)
            else:
                coordinator.step(t)
        total += window.elapsed_ms
    contents = {
        name: maintainer.view.contents()
        for name, maintainer in maintainers.items()
    }
    return contents, total


def run_multiview_scale() -> MultiviewScaleResult:
    points = []
    for views_per_table in SWEEP:
        shared_contents, shared_ms = _run_fleet(views_per_table, shared=True)
        ind_contents, independent_ms = _run_fleet(views_per_table, shared=False)
        assert shared_contents == ind_contents, (
            f"contents diverge at {views_per_table} views/table"
        )
        points.append(
            SweepPoint(
                views_per_table=views_per_table,
                total_views=3 * views_per_table,
                shared_ms=shared_ms,
                independent_ms=independent_ms,
            )
        )
    return MultiviewScaleResult(points)


def bench_multiview_scale():
    result = run_multiview_scale()
    write_table("multiview_scale", result.format())
    per_view = [p.shared_per_view for p in result.points]
    assert all(a > b for a, b in zip(per_view, per_view[1:])), (
        f"per-view shared cost not strictly decreasing: {per_view}"
    )
    for p in result.points:
        if p.views_per_table >= 2:
            assert p.shared_ms < p.independent_ms, (
                f"shared rounds not cheaper at {p.views_per_table} "
                f"views/table: {p.shared_ms} vs {p.independent_ms}"
            )
