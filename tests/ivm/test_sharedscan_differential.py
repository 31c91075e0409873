"""Differential: shared-scan rounds vs independent view-at-a-time rounds.

Two coordinators over identically seeded databases and update streams,
one running table-at-a-time shared scans (the default), one the legacy
independent rounds.  Across the (block_size x policy) matrix:

* every view's contents are identical between the modes (and match a
  from-scratch recompute);
* the fleet's total simulated maintenance cost is **strictly lower** in
  shared mode once >= 2 views share a base table -- the scan de-dup plus
  fingerprint suppression is a real saving, not an accounting shuffle;
* with a single subscriber and no fingerprint in play the totals are
  **exactly equal** -- shared scanning moves the charge, never the amount.
"""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db

STEPS = 5
MODS_PER_STEP = 8
COST = (LinearCost(slope=0.5, setup=2.0),)


def min_cost_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )


def qty_spec() -> QuerySpec:
    """Never reads ``supplycost``: suppressible under the update stream."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(
            func="sum", value=col("PS.availqty"), group_by=("PS.suppkey",)
        ),
    )


def whole_row_spec() -> QuerySpec:
    """Whole-row SPJ: ``referenced_columns`` is None, never fingerprinted."""
    return QuerySpec(base_alias="PS", base_table="partsupp")


def make_policy(kind: str):
    # Views sharing a table get identical policy configs, so their flush
    # windows coincide -- the regime where scan sharing pays.
    if kind == "naive":
        return NaivePolicy(), 1.0  # any non-empty state is full
    return OnlinePolicy(), 30.0


def run_fleet(
    specs: dict,
    policy_kind: str,
    shared: bool,
    block_size: int,
) -> tuple[dict, float]:
    """Maintain ``specs`` over a fresh seeded TPC-R db; returns
    (per-view contents, total simulated maintenance cost in ms)."""
    db = make_tpcr_db()
    db.block_size = block_size
    coordinator = MaintenanceCoordinator(db, shared_scans=shared)
    for name, spec in specs.items():
        policy, limit = make_policy(policy_kind)
        coordinator.add_view(
            ViewConfig(
                name=name,
                query=spec,
                policy=policy,
                cost_functions=COST,
                limit=limit,
                scheduled_aliases=("PS",),
            )
        )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    total = 0.0
    for t in range(STEPS):
        updater.apply(MODS_PER_STEP)
        with db.counter.window() as window:
            coordinator.step(t)
        total += window.elapsed_ms
    with db.counter.window() as window:
        coordinator.refresh(t=STEPS)
    total += window.elapsed_ms
    contents = {
        name: maintainer.view.contents()
        for name, maintainer in coordinator.iter_maintainers()
    }
    for name, maintainer in coordinator.iter_maintainers():
        assert maintainer.view.contents() == maintainer.view.recompute(), name
    return contents, total


MATRIX = [
    pytest.param(bs, p, id=f"bs{bs}-{p}")
    for bs in (16, 256)
    for p in ("naive", "online")
]


@pytest.mark.parametrize("block_size,policy", MATRIX)
def test_shared_fleet_identical_and_strictly_cheaper(block_size, policy):
    specs = {
        "min_a": min_cost_spec(),
        "min_b": min_cost_spec(),
        "qty": qty_spec(),
    }
    independent, cost_ind = run_fleet(
        specs, policy, shared=False, block_size=block_size
    )
    shared, cost_shared = run_fleet(
        specs, policy, shared=True, block_size=block_size
    )
    assert shared == independent
    assert cost_shared < cost_ind


@pytest.mark.parametrize("block_size", (16, 256))
def test_single_view_totals_exactly_equal(block_size):
    specs = {"rows": whole_row_spec()}
    independent, cost_ind = run_fleet(
        specs, "naive", shared=False, block_size=block_size
    )
    shared, cost_shared = run_fleet(
        specs, "naive", shared=True, block_size=block_size
    )
    assert shared == independent
    assert cost_shared == pytest.approx(cost_ind, abs=1e-9)
