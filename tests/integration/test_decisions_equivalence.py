"""Differential: decision tracing + calibration are strictly observational.

The tracing layer (:mod:`repro.obs.decisions`) and the calibration layer
(:mod:`repro.obs.calibration`) promise never to touch the operation
counter.  These tests enforce that the way the attribution and block
refactors are enforced: run the same workload twice on identically
seeded databases -- once with *everything* on (recorder, decision log,
calibration tracker) and once with everything off -- and require byte-identical view contents
and byte-identical :class:`OperationCounter` cost tables at small and
default block sizes.

The traced leg must also be *non-vacuous*: it has to actually produce
view-tagged joined decisions and calibration samples, otherwise the
equality proves nothing.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.receding import RecedingHorizonPolicy
from repro.core.problem import ProblemInstance
from repro.core.simulator import simulate_policy
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import calibration, decisions
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db
from tests.ivm.test_sharedscan_differential import min_cost_spec, qty_spec

STEPS = 4
MODS_PER_STEP = 8
COST = (LinearCost(slope=0.5, setup=2.0),)

#: The acceptance grid: small and default blocks.
BLOCK_SIZES = (256, 16)


def run_fleet(block_size: int, traced: bool):
    """Maintain a two-view fleet; returns (contents, cost table, evidence).

    ``evidence`` is ``None`` untraced; otherwise the (decision log,
    calibration tracker) the traced leg accumulated.
    """
    db = make_tpcr_db()
    db.block_size = block_size

    def drive():
        coordinator = MaintenanceCoordinator(db)
        # min_cost reads the updated column, so its flushes are never
        # fingerprint-suppressed and always do (and charge) real work;
        # NaivePolicy with limit=1 flushes it every round.  qty defers
        # until the forced refresh under its generous ONLINE limit.
        for name, spec, policy, limit in (
            ("min_cost", min_cost_spec(), NaivePolicy(), 1.0),
            ("qty", qty_spec(), OnlinePolicy(), 30.0),
        ):
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
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=7)
        for t in range(STEPS):
            updater.apply(MODS_PER_STEP)
            coordinator.step(t)
        coordinator.refresh(t=STEPS)
        return {
            name: maintainer.view.contents()
            for name, maintainer in coordinator.iter_maintainers()
        }

    if not traced:
        return drive(), db.counter.snapshot(), None

    with obs.recording():
        with decisions.collecting() as log:
            with calibration.tracking() as tracker:
                contents = drive()
    return contents, db.counter.snapshot(), (log, tracker)


class TestMaintainedFleetEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_cost_tables_identical_with_tracing_on_and_off(self, block_size):
        ref_contents, ref_charges, _ = run_fleet(block_size, traced=False)
        contents, charges, evidence = run_fleet(block_size, traced=True)
        assert contents == ref_contents, (
            f"view contents diverge under tracing at block_size={block_size}"
        )
        assert charges == ref_charges, (
            f"cost table diverges under tracing at block_size={block_size}"
        )
        # Non-vacuity: the traced run really traced.
        log, tracker = evidence
        joined = [e for e in log.events() if e.actual_ms is not None]
        assert joined, "no decision was ever joined with its execution"
        assert {e.view for e in joined} == {"min_cost", "qty"}
        assert all(e.source == "ivm" for e in log.events())
        flushed = [e for e in joined if e.is_flush]
        assert flushed
        assert any(e.charges for e in flushed), (
            "maintainer joins must carry the round's charge delta"
        )
        assert any(e.actual_table_ms for e in flushed)
        assert len(tracker) >= len(
            [e for e in flushed if e.actual_ms]
        ), "every per-table flush should yield a calibration sample"
        assert len(tracker) > 0, "the calibration ring sampled no flush"

    def test_calibration_samples_match_ledger_predictions(self):
        """Each sample's prediction is the planner's own f_i(k) for the
        flushed batch -- recomputable from the cost family."""
        _, _, (log, tracker) = run_fleet(256, traced=True)
        (f,) = COST
        for sample in tracker.samples():
            assert sample.k > 0
            assert sample.predicted_ms == pytest.approx(f(sample.k))


class TestSimulatorEquivalence:
    @pytest.mark.parametrize(
        "policy_factory",
        [NaivePolicy, OnlinePolicy, lambda: RecedingHorizonPolicy(window=4)],
        ids=["naive", "online", "receding"],
    )
    def test_plans_identical_with_tracing_on_and_off(self, policy_factory):
        problem = ProblemInstance(
            cost_functions=(
                LinearCost(slope=1.0, setup=0.5),
                LinearCost(slope=0.5, setup=1.0),
            ),
            limit=4.0,
            arrivals=[(1, 1)] * 10,
        )
        reference = simulate_policy(problem, policy_factory())
        with obs.recording():
            with decisions.collecting() as log:
                traced = simulate_policy(problem, policy_factory())
        assert traced.plan.actions == reference.plan.actions
        assert traced.action_costs == reference.action_costs
        assert traced.total_cost == reference.total_cost
        assert log.events(), "tracing produced no events"
