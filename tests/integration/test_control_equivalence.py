"""Differential: a fully-disabled controller vs no controller at all.

The adaptive runtime's contract is **disabled == invisible**: a
controller whose governors are all off never subscribes to an alert
hub, never reads the metric registry, and never touches a knob.  This
suite proves it differentially -- two identically seeded maintenance
runs, one with a disabled controller attached and ticked every step,
one with no controller object at all, must produce byte-identical view
contents and byte-identical simulated-cost (OperationCounter) tables
at small and default block sizes.  CI's
"Gate on controller differential equivalence" step runs exactly this
file.
"""

import pytest

from repro import obs
from repro.control import build_controller
from repro.control import events as control_events
from repro.core.costfuncs import LinearCost
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db

STEPS = 6
MODS_PER_STEP = 8
COST = (LinearCost(slope=0.5, setup=2.0),)
LIMIT = 30.0


def _specs() -> dict:
    return {
        "min_cost": QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
        ),
        "qty_by_supp": QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            aggregate=AggregateSpec(
                func="sum",
                value=col("PS.availqty"),
                group_by=("PS.suppkey",),
            ),
        ),
    }


def run_fleet(with_controller: bool, block_size: int):
    """One seeded maintenance run; returns (per-view contents, charges).

    ``with_controller=True`` attaches a controller whose governors are
    all disabled and ticks it after every round -- the leg that must be
    indistinguishable from ``with_controller=False``.
    """
    db = make_tpcr_db()
    db.block_size = block_size
    coordinator = MaintenanceCoordinator(db)
    for name, spec in _specs().items():
        coordinator.add_view(
            ViewConfig(
                name=name,
                query=spec,
                policy=OnlinePolicy(),
                cost_functions=COST,
                limit=LIMIT,
                scheduled_aliases=("PS",),
            )
        )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    controller = (
        build_controller(coordinator, policy=False)
        if with_controller
        else None
    )
    if controller is not None:
        controller.attach()
    try:
        # A live recorder plus a control-event sink make the check
        # strict: even with telemetry flowing, the disabled leg must
        # read nothing, emit nothing, and actuate nothing.
        with obs.recording(), control_events.collecting() as log:
            for t in range(STEPS):
                updater.apply(MODS_PER_STEP)
                coordinator.step(t)
                if controller is not None:
                    controller.tick(t)
            coordinator.refresh(t=STEPS)
    finally:
        if controller is not None:
            controller.detach()
    assert not log.events()
    contents = {
        name: maintainer.view.contents()
        for name, maintainer in coordinator.iter_maintainers()
    }
    return contents, dict(db.counter.snapshot())


@pytest.mark.parametrize("block_size", (7, 64))
def test_disabled_controller_is_invisible(block_size):
    bare_contents, bare_charges = run_fleet(
        with_controller=False, block_size=block_size
    )
    ctl_contents, ctl_charges = run_fleet(
        with_controller=True, block_size=block_size
    )
    assert ctl_contents == bare_contents
    assert ctl_charges == bare_charges
    # Sanity: the run did real maintenance work, so equality above is
    # comparing populated tables, not two empty dicts.
    assert bare_contents["min_cost"]
    assert any(bare_charges.values())
