"""Tests for the response-time-constrained view maintainer runtime."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy, PolicyError, ReplayPolicy
from repro.ivm.maintainer import ViewMaintainer
from tests.conftest import make_paper_spec, make_tpcr_db
from repro.ivm.view import MaterializedView
from repro.obs import events
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater

COSTS = (LinearCost(slope=0.2, setup=1.0), LinearCost(slope=10.0, setup=120.0))
LIMIT = 600.0


def make_maintainer(policy):
    db = make_tpcr_db()
    view = MaterializedView("v", db, make_paper_spec())
    maintainer = ViewMaintainer(
        view,
        COSTS,
        limit=LIMIT,
        policy=policy,
        scheduled_aliases=("PS", "S"),
    )
    ps = PartSuppCostUpdater(db.table("partsupp"), seed=21)
    sup = SupplierNationUpdater(db.table("supplier"), seed=22)
    return maintainer, ps, sup


class TestStepAndRefresh:
    def test_naive_run_stays_consistent(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        for t in range(12):
            ps.apply(8)
            sup.apply(1)
            maintainer.step(t)
        maintainer.refresh(12)
        assert not any(maintainer.view.pending_sizes().values())
        assert maintainer.view.contents() == maintainer.view.recompute()

    def test_online_run_stays_consistent(self):
        maintainer, ps, sup = make_maintainer(OnlinePolicy())
        for t in range(12):
            ps.apply(8)
            sup.apply(1)
            maintainer.step(t)
        maintainer.refresh(12)
        assert maintainer.view.contents() == maintainer.view.recompute()

    def test_log_records_every_step(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        for t in range(5):
            ps.apply(2)
            maintainer.step(t)
        assert len(maintainer.ledger.entries) == 5
        assert maintainer.ledger.entries[0].arrivals == (2, 0)
        assert maintainer.ledger.total_sim_ms >= 0.0

    def test_predicted_cost_uses_calibrated_functions(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        sup.apply(60)  # f_S(60) = 120 + 600 = 720 > C: forced flush
        entry = maintainer.step(0)
        assert entry.action == (0, 60)
        assert entry.predicted_ms == pytest.approx(720.0)
        assert entry.sim_ms > 0.0

    def test_clock_auto_increments(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        ps.apply(1)
        r0 = maintainer.step()
        ps.apply(1)
        r1 = maintainer.step()
        assert (r0.t, r1.t) == (0, 1)

    def test_refresh_empties_all_deltas(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        ps.apply(5)
        sup.apply(2)
        maintainer.refresh()
        assert maintainer.pre_state() == (0, 0)
        assert not any(maintainer.view.pending_sizes().values())

    def test_action_counts(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        for t in range(4):
            ps.apply(1)
            maintainer.step(t)
        maintainer.refresh()
        assert maintainer.ledger.action_count == 1  # only the final refresh
        assert len(maintainer.ledger.entries) == 5


class TestPolicyViolations:
    def test_constraint_violation_raises(self):
        class DoNothing(Policy):
            def decide(self, t, pre_state):
                return (0,) * self.n

        maintainer, ps, sup = make_maintainer(DoNothing())
        sup.apply(60)  # refresh cost 720 > C
        with pytest.raises(PolicyError, match="violates"):
            maintainer.step(0)

    def test_overdraw_raises(self):
        class Overdraw(Policy):
            def decide(self, t, pre_state):
                return tuple(s + 1 for s in pre_state)

        maintainer, ps, sup = make_maintainer(Overdraw())
        ps.apply(1)
        with pytest.raises(PolicyError, match="exceeds"):
            maintainer.step(0)

    def test_fractional_action_is_refused_not_floored(self):
        class Fractional(Policy):
            def decide(self, t, pre_state):
                return (pre_state[0] / 2, pre_state[1])

        maintainer, ps, sup = make_maintainer(Fractional())
        ps.apply(3)
        with pytest.raises(PolicyError, match=r"at t=0: .*non-integer"):
            maintainer.step(0)
        # A refused step: no entry, nothing applied.
        assert maintainer.ledger.entries == []
        assert maintainer.pre_state() == (3, 0)

    def test_unscheduled_table_modification_detected(self):
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        # Nation is not a scheduled alias; modifying it must be flagged.
        nation = maintainer.view.database.table("nation")
        nation.update_rid(0, {"regionkey": 1})
        with pytest.raises(PolicyError, match="unscheduled"):
            maintainer.step(0)


class TestARaisingSubscriber:
    def test_the_round_is_booked_before_its_samples_are_told(self):
        """A ``calibration`` subscriber that raises on a round's first
        sample finds the round booked: both flushes applied, one ledger
        entry, and ONLINE's ``F_t`` charged with the round's cost."""
        maintainer, ps, sup = make_maintainer(OnlinePolicy())
        told = []

        class Blown(Exception):
            pass

        def calibrate(sample):
            told.append(sample)
            raise Blown

        ps.apply(8)
        sup.apply(1)
        with events.subscribe("calibration", calibrate):
            with pytest.raises(Blown):
                maintainer.refresh(0)
        (entry,) = maintainer.ledger.entries
        assert (entry.action, entry.forced, entry.flushes) == ((8, 1), True, 2)
        assert entry.sim_ms > 0
        assert maintainer.policy.spent == entry.predicted_ms > 0
        assert maintainer.pre_state() == (0, 0)
        assert [(s.view, s.t, s.alias) for s in told] == [("v", 0, "PS")]


class TestConstructionGuards:
    def test_wrong_cost_function_count(self):
        db = make_tpcr_db()
        view = MaterializedView("v", db, make_paper_spec())
        with pytest.raises(ValueError, match="one cost function"):
            ViewMaintainer(
                view, COSTS, limit=LIMIT, policy=NaivePolicy(),
                scheduled_aliases=("PS",),
            )

    def test_unknown_scheduled_alias(self):
        db = make_tpcr_db()
        view = MaterializedView("v", db, make_paper_spec())
        with pytest.raises(ValueError, match="not in view"):
            ViewMaintainer(
                view, COSTS, limit=LIMIT, policy=NaivePolicy(),
                scheduled_aliases=("PS", "ZZ"),
            )


class TestReplayThroughMaintainer:
    def test_replayed_plan_executes_live(self):
        # A hand-written plan: flush everything at t=2, and at refresh.
        plan_actions = [(0, 0), (0, 0), (6, 2), (0, 0)]
        maintainer, ps, sup = make_maintainer(ReplayPolicy(plan_actions))
        for t in range(4):
            ps.apply(2)
            if t < 2:
                sup.apply(1)
            maintainer.step(t)
        maintainer.refresh(4)
        assert maintainer.view.contents() == maintainer.view.recompute()
        assert maintainer.ledger.entries[2].action == (6, 2)
