"""Differential: a governor that never actuates vs no governor at all.

The policy governor's contract is **reading is observational**: a
governor that reads every view's ledger entries and is ticked every
round changes nothing until it actuates.  This suite proves it
differentially -- two identically seeded maintenance runs, one under a
governor whose escalation threshold is out of reach, one with no
governor object at all, must produce byte-identical view contents and
byte-identical simulated-cost (OperationCounter) tables at small and
default block sizes.  CI's "Gate on controller differential
equivalence" step runs exactly this file.
"""

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.governor import PolicyGovernor, verdict
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import events
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db

STEPS = 8  # 56 pending at t=6 rides the near-breach band, 64 at t=7 breaches
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

    ``with_controller=True`` builds a governor that cannot reach its
    escalation threshold and ticks it after every round -- the leg that
    must be indistinguishable from ``with_controller=False``.
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
    governor = (
        PolicyGovernor(coordinator, escalate_after=10**9)
        if with_controller
        else None
    )
    # A live recorder plus an open actuation ring make the check strict:
    # both legs pay for the same observations, the governed leg reads
    # every entry, and it still actuates nothing.
    with obs.recording(), events.collecting("actuation") as log:
        for t in range(STEPS):
            updater.apply(MODS_PER_STEP)
            coordinator.step(t)
            if governor is not None:
                governor.tick(t)
        coordinator.refresh(t=STEPS)
        if governor is not None:
            governor.tick(STEPS)
        assert not log.rings["actuation"].events()
    if governor is not None:
        # Non-vacuity: the governor counted real pressure, every
        # view-round the ledger's verdict flags.
        flagged = sum(
            verdict(m.model, e) is not None
            for _, m in coordinator.iter_maintainers()
            for e in m.ledger.entries
        )
        assert sum(map(len, governor._pressure.values())) == flagged > 0
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
