"""End-to-end integration tests: the full stack on the paper's scenario.

These runs exercise engine -> TPC-R -> IVM -> core policies together and
assert both scheduling behaviour (constraint never violated, asymmetric
plans win) and data correctness (view contents always equal a from-scratch
recomputation).
"""

import random

import pytest

from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy, ReplayPolicy
from repro.core.problem import ProblemInstance
from repro.ivm.calibration import measure_cost_function
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.view import MaterializedView
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import flush_all, make_paper_spec, make_tpcr_db


def calibrate(view, ps_updater, sup_updater):
    cal_ps = measure_cost_function(view, "PS", (4, 12, 30), ps_updater)
    cal_s = measure_cost_function(view, "S", (2, 6, 12), sup_updater)
    return cal_ps.tabulated, cal_s.tabulated


class TestFullPipeline:
    def test_calibrate_plan_execute(self):
        """The complete workflow: measure costs, plan with A*, replay the
        plan live, and verify both cost accounting and view contents."""
        # Calibrate on a scratch database.
        scratch = make_tpcr_db(seed=1)
        scratch_view = MaterializedView("v", scratch, make_paper_spec())
        f_ps, f_s = calibrate(
            scratch_view,
            PartSuppCostUpdater(scratch.table("partsupp"), seed=31),
            SupplierNationUpdater(scratch.table("supplier"), seed=32),
        )
        limit = f_s(10) * 1.2
        horizon = 30
        arrivals = [(8, 1)] * (horizon + 1)
        problem = ProblemInstance((f_ps, f_s), limit, arrivals)
        optimal = find_optimal_lgm_plan(problem)

        # Execute the plan on a fresh, identical live system.
        db = make_tpcr_db(seed=1)
        view = MaterializedView("v", db, make_paper_spec())
        maintainer = ViewMaintainer(
            view, (f_ps, f_s), limit=limit,
            policy=ReplayPolicy(optimal.plan.actions),
            scheduled_aliases=("PS", "S"),
        )
        ps_updater = PartSuppCostUpdater(db.table("partsupp"), seed=41)
        sup_updater = SupplierNationUpdater(db.table("supplier"), seed=42)
        for t in range(horizon + 1):
            ps_updater.apply(8)
            sup_updater.apply(1)
            if t == horizon:
                maintainer.refresh(t)
            else:
                maintainer.step(t)
        assert view.contents() == view.recompute()
        assert not any(view.pending_sizes().values())
        # Simulated and live cost agree to within a modest tolerance.
        assert maintainer.ledger.total_sim_ms == pytest.approx(
            optimal.cost, rel=0.30
        )

    def test_online_policy_live_beats_naive_live(self):
        results = {}
        for name, policy in (("naive", NaivePolicy()), ("online", OnlinePolicy())):
            db = make_tpcr_db(seed=2)
            view = MaterializedView("v", db, make_paper_spec())
            costs = (
                LinearCost(slope=0.2, setup=1.0),
                LinearCost(slope=10.0, setup=120.0),
            )
            maintainer = ViewMaintainer(
                view, costs, limit=500.0, policy=policy,
                scheduled_aliases=("PS", "S"),
            )
            ps_updater = PartSuppCostUpdater(db.table("partsupp"), seed=51)
            sup_updater = SupplierNationUpdater(db.table("supplier"), seed=52)
            # 50 PartSupp : 1 Supplier per step keeps both tables' budget
            # drains comparable, where asymmetric scheduling pays off.
            for t in range(60):
                ps_updater.apply(50)
                sup_updater.apply(1)
                maintainer.step(t)
            maintainer.refresh(60)
            assert view.contents() == view.recompute()
            results[name] = maintainer.ledger.total_sim_ms
        assert results["online"] < results["naive"]

    def test_random_policy_interleaving_preserves_consistency(self):
        """Fuzz: a random-but-valid policy must never corrupt the view."""

        class RandomValidPolicy(Policy):
            def __init__(self, seed):
                self.rng = random.Random(seed)

            def decide(self, t, pre_state):
                from repro.core.actions import (
                    enumerate_greedy_minimal_actions,
                )

                if not self.is_full(pre_state):
                    # Occasionally act early (legal, just not lazy).
                    if self.rng.random() < 0.2 and any(pre_state):
                        return pre_state
                    return (0,) * self.n
                actions = list(
                    enumerate_greedy_minimal_actions(pre_state, self)
                )
                return self.rng.choice(actions)

        db = make_tpcr_db(seed=3)
        view = MaterializedView("v", db, make_paper_spec())
        costs = (
            LinearCost(slope=0.2, setup=1.0),
            LinearCost(slope=10.0, setup=120.0),
        )
        maintainer = ViewMaintainer(
            view, costs, limit=500.0, policy=RandomValidPolicy(13),
            scheduled_aliases=("PS", "S"),
        )
        ps_updater = PartSuppCostUpdater(db.table("partsupp"), seed=61)
        sup_updater = SupplierNationUpdater(db.table("supplier"), seed=62)
        rng = random.Random(14)
        for t in range(25):
            ps_updater.apply(rng.randint(0, 12))
            sup_updater.apply(rng.randint(0, 2))
            maintainer.step(t)
            assert view.contents() == view.recompute()
        maintainer.refresh(25)
        assert view.contents() == view.recompute()

    def test_min_recomputation_path_exercised_live(self):
        """Deleting the current MIN through supplier re-keying must flow
        through the recomputation fallback and stay correct."""
        db = make_tpcr_db(seed=4)
        view = MaterializedView("v", db, make_paper_spec())
        sup = db.table("supplier")
        sup_updater = SupplierNationUpdater(sup, seed=71)
        recomputes_before = view.state.data.recomputations
        # Re-key every supplier a few times: the MIN holder will move.
        for __ in range(4):
            sup_updater.apply(sup.live_count)
            view.deltas["S"].pull()
            flush_all(view)
            assert view.contents() == view.recompute()
        recomputes_after = view.state.data.recomputations
        assert recomputes_after > recomputes_before
