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
view-tagged decisions and calibration samples, otherwise the equality
proves nothing.  A live step's cost is told by the records that stay:
its ledger entry, and one calibration sample per really flushed table
whose actuals add up to the entry's measured cost.
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
from repro.engine.costmodel import float_total
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
    calibration tracker) the traced leg accumulated and the views'
    ledgers by name.
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
        maintainers = dict(coordinator.iter_maintainers())
        return (
            {name: m.view.contents() for name, m in maintainers.items()},
            {name: m.ledger for name, m in maintainers.items()},
        )

    if not traced:
        return drive()[0], db.counter.snapshot(), None

    with obs.recording():
        with decisions.collecting() as log:
            with calibration.tracking() as tracker:
                contents, ledgers = drive()
    return contents, db.counter.snapshot(), (log, tracker, ledgers)


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
        log, tracker, ledgers = evidence
        assert {e.view for e in log.events()} == {"min_cost", "qty"}
        assert all(e.source == "ivm" for e in log.events())
        assert any(e.is_flush for e in log.events())
        assert len(tracker) > 0, "the calibration ring sampled no flush"
        samples = {}
        for sample in tracker.samples():
            samples.setdefault((sample.view, sample.t), []).append(sample)
        for name, ledger in ledgers.items():
            for entry in ledger.entries:
                step = samples.pop((name, entry.t), [])
                # A suppressed or idle round charged nothing.
                flushed = {
                    alias
                    for alias, k in zip(ledger.aliases, entry.action)
                    if k and entry.charges
                }
                assert {s.alias for s in step} == flushed
                assert float_total(s.actual_ms for s in step) == (
                    pytest.approx(entry.sim_ms)
                )
        assert not samples, "a calibration sample with no ledger entry"

    def test_calibration_samples_match_ledger_predictions(self):
        """Each sample's prediction is the planner's own f_i(k) for the
        flushed batch -- recomputable from the cost family."""
        _, _, (_, tracker, _) = run_fleet(256, traced=True)
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
