"""One maintenance round: one Definition-1 check, one record, one tail.

The simulator and the live maintainer are the same loop (the paper's
Figure 5), so they must reject the same bad action the same way, and
``CostModel.check_action`` -- the one function both ask -- must agree
with Definition 1 stated in plain Python.  Every kind of live round
(idle, flushed, fingerprint-suppressed, forced) must end in the same
bookkeeping: one ledger entry (the view's whole record: its per-view
series and skip counts are read from the ledger), one calibration
sample per really flushed table and, where the policy was asked, one
decision.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.plan import Plan
from repro.core.policies import Policy, PolicyError
from repro.core.problem import CostModel, ProblemInstance
from repro.core.receding import RecedingHorizonPolicy
from repro.core.simulator import simulate_policy
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator
from repro.ivm.view import MaterializedView
from repro.obs import events
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_paper_spec, make_tpcr_db
from tests.ivm.test_maintainer import make_maintainer
from tests.ivm.test_sharedscan import add_naive, availqty_spec, supplycost_spec

#: Integer-valued, so ``f(s) <= C`` is exact and needs no tolerance.
COSTS = (LinearCost(slope=1.0, setup=2.0), LinearCost(slope=3.0, setup=5.0))


def refresh_cost(state) -> float:
    return sum(f(k) for f, k in zip(COSTS, state))


def definition_1(pre, action, forced, limit) -> bool:
    """Definition 1 for one step, stated plainly."""
    if any(a < 0 or a > s for a, s in zip(action, pre)):
        return False
    post = [s - a for s, a in zip(pre, action)]
    return forced or refresh_cost(post) <= limit


vectors = st.tuples(st.integers(0, 12), st.integers(0, 12))
#: Integer limits, and limits a hair below an integer cost: a post-action
#: cost there is over ``C`` by under 1 %, which a tolerance scaled by
#: ``C`` would let through.
limits = st.integers(0, 60) | st.integers(1, 60).map(lambda n: n - 0.01)


class TestOneCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        pre=vectors,
        action=st.tuples(st.integers(-2, 14), st.integers(-2, 14)),
        forced=st.booleans(),
        limit=limits,
    )
    @example(pre=(3, 0), action=(0, 0), forced=False, limit=4.99)
    def test_check_action_is_definition_1(self, pre, action, forced, limit):
        model = CostModel(COSTS, limit)
        if definition_1(pre, action, forced, limit):
            post, cost = model.check_action(pre, action, forced)
            assert post == tuple(s - a for s, a in zip(pre, action))
            assert cost == refresh_cost(post)
        else:
            with pytest.raises(ValueError):
                model.check_action(pre, action, forced)

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.tuples(vectors, vectors), min_size=1, max_size=6),
        limit=limits,
    )
    def test_plan_validity_is_definition_1_per_step(self, steps, limit):
        arrivals = [d for d, _ in steps]
        plan = Plan([p for _, p in steps])
        problem = ProblemInstance(COSTS, limit, arrivals)
        state, valid = (0, 0), True
        for t, (d, p) in enumerate(steps):
            final = t == len(steps) - 1
            pre = tuple(s + a for s, a in zip(state, d))
            if not definition_1(pre, p, final, limit):
                valid = False
                break
            state = tuple(s - a for s, a in zip(pre, p))
        valid = valid and not any(state)  # p_T empties every delta table
        try:
            plan.check_valid(problem)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_error_names_the_violation(self):
        model = CostModel(COSTS, 10.0)
        with pytest.raises(ValueError, match="negative"):
            model.check_action((1, 1), (-1, 0))
        with pytest.raises(ValueError, match="exceeds backlog"):
            model.check_action((1, 1), (2, 0))
        with pytest.raises(ValueError, match="violates C=10"):
            model.check_action((9, 9), (0, 0))
        assert model.check_action((9, 9), (0, 0), forced=True)[0] == (9, 9)
        with pytest.raises(ValueError):  # a vector of the wrong width
            model.check_action((1, 1), (1,))


class Negative(Policy):
    def decide(self, t, pre_state):
        return (-1, 0)


class TestSameLoopSameVerdict:
    def test_negative_action_is_a_policy_error_simulated_and_live(self):
        """Without the bounds check ahead of pricing, the simulator lets
        the cost function's own ``ValueError`` about ``f(-1)`` escape."""
        problem = ProblemInstance(COSTS, 1000.0, [(1, 1)] * 4)
        with pytest.raises(PolicyError, match=r"Negative.* at t=0: .*negative"):
            simulate_policy(problem, Negative())

        maintainer, ps, sup = make_maintainer(Negative())
        ps.apply(1)
        sup.apply(1)
        before = maintainer.view.contents()
        with pytest.raises(PolicyError, match=r"Negative.* at t=0: .*negative"):
            maintainer.step(0)
        # Refused before anything ran: no entry, nothing applied.
        assert maintainer.ledger.entries == []
        assert maintainer.pre_state() == (1, 1)
        assert maintainer.view.contents() == before

    def test_repeated_scheduled_alias_is_refused_at_construction(self):
        """Accepted, it would count PS's backlog twice, flush PS, then
        raise ``ExecutionError`` from the second flush of the same table:
        a view advanced with no ledger entry, a half-done round."""
        db = make_tpcr_db()
        view = MaterializedView("v", db, make_paper_spec())
        PartSuppCostUpdater(db.table("partsupp"), seed=21).apply(4)
        before = view.contents()
        with pytest.raises(ValueError, match="twice"):
            ViewMaintainer(
                view, COSTS, limit=1.0, policy=NaivePolicy(),
                scheduled_aliases=("PS", "PS"),
            )
        # Nothing was pulled or applied.
        assert all(delta.size == 0 for delta in view.deltas.values())
        assert view.deltas["PS"].pull() == 4
        assert view.contents() == before


#: (view, round) -> the view's series after that round, read from its
#: ledger (rounds, flushes, mods applied, simulated cost, backlog, and the
#: round count and cost total again, as the recorder's per-view series
#: once held them) and what a decided round cost (the entry's ``sim_ms``, its
#: calibration samples' actual ms by table, the entry's charges; None: a
#: forced round, the policy was not asked).  Recorded at the parent
#: commit of the one-round refactor, when a decision carried that cost.
AT_PARENT = {
    ("insensitive", 0): ((1, 0, 0, 0.0, 0.0, (1, 0.0)), (0.0, {}, {})),
    ("sensitive", 0): ((1, 0, 0, 0.0, 0.0, (1, 0.0)), (0.0, {}, {})),
    ("insensitive", 1): ((2, 1, 4, 0.0, 0.0, (2, 0.0)), (0.0, {}, {})),
    ("sensitive", 1): (
        (2, 1, 4, 1.079999999999984, 0.0, (2, 1.079999999999984)),
        (
            1.079999999999984,
            {"PS": 1.079999999999984},
            {"agg_updates": 8, "startups": 2},
        ),
    ),
    ("insensitive", 2): ((3, 2, 8, 0.0, 0.0, (3, 0.0)), None),
    ("sensitive", 2): (
        (3, 2, 8, 2.159999999999968, 0.0, (3, 2.159999999999968)), None,
    ),
    ("insensitive", 3): ((4, 2, 8, 0.0, 0.0, (4, 0.0)), None),
    ("sensitive", 3): (
        (4, 2, 8, 2.159999999999968, 0.0, (4, 2.159999999999968)), None,
    ),
}


class TestOneTail:
    def test_every_kind_of_round_books_the_same_series_and_join(self):
        """Round 0 is idle, round 1 flushes ``sensitive`` and suppresses
        ``insensitive``, round 2 is a forced refresh with work, round 3 a
        forced refresh with none."""
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "insensitive", availqty_spec())
        add_naive(coordinator, "sensitive", supplycost_spec())
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=17)
        seen = {}
        with obs.recording() as recorder, events.collecting(
            "decision", "calibration"
        ) as log:
            for t, (mods, forced) in enumerate(
                [(0, False), (4, False), (4, True), (0, True)]
            ):
                updater.apply(mods)
                entries = (
                    coordinator.refresh(t=t) if forced else coordinator.step(t)
                )
                for name, entry in entries.items():
                    ledger = coordinator.maintainer(name).ledger
                    assert entry is ledger.entries[-1]
                    assert (entry.t, entry.forced) == (t, forced)
                    series = (
                        len(ledger.entries), ledger.flushes,
                        sum(e.mods_applied for e in ledger.entries),
                        ledger.total_sim_ms, float(ledger.backlog),
                        (len(ledger.entries), ledger.total_sim_ms),
                    )
                    decided = [
                        e for e in log.rings["decision"].events(t)
                        if e.view == name
                    ]
                    assert len(decided) == (0 if forced else 1)
                    flushed = {
                        s.alias: s.actual_ms
                        for s in log.rings["calibration"].events(t)
                        if s.view == name
                    }
                    cost = (entry.sim_ms, flushed, dict(entry.charges))
                    seen[name, t] = (series, None if forced else cost)
            counts = {
                name: recorder.registry.get(name).value
                for name in (
                    "planner.decisions.emitted", "planner.calibration.samples",
                )
            }
        # The skips, counted from the entries as the layered harness does:
        # an idle round over an empty state, an action that charged nothing.
        booked = [
            entry
            for ledger in coordinator.ledgers().values()
            for entry in ledger.entries
        ]
        counts["ivm.skip.empty"] = sum(
            1 for e in booked if not any(e.action) and not any(e.pre_state)
        )
        counts["ivm.skip.fingerprint"] = sum(
            1 for e in booked if any(e.action) and not e.charges
        )
        assert seen == AT_PARENT
        assert counts == {
            "planner.decisions.emitted": 4, "planner.calibration.samples": 2,
            "ivm.skip.empty": 4, "ivm.skip.fingerprint": 2,
        }
        # A suppressed flush charged nothing; an idle round flushed nothing.
        insensitive = coordinator.maintainer("insensitive").ledger.entries
        assert [e.charges for e in insensitive] == [{}, {}, {}, {}]
        assert [e.flushes for e in insensitive] == [0, 1, 1, 0]

    def test_every_entry_passes_the_check_across_policy_switches(self):
        """The policy moves naive -> online -> receding -> online ->
        naive between rounds; whichever policy decided, what the ledger
        holds is what the maintainer's own model accepts."""
        maintainer, ps, sup = make_maintainer(NaivePolicy())
        view = maintainer.view
        t = 0
        for policy in (
            OnlinePolicy(), RecedingHorizonPolicy(window=60), OnlinePolicy(),
            NaivePolicy(),
        ):
            for _ in range(6):
                ps.apply(8)
                sup.apply(1)
                maintainer.step(t)
                assert view.contents() == view.recompute()
                t += 1
            maintainer.refresh(t)
            t += 1
            maintainer.set_policy(policy)
        ps.apply(8)
        maintainer.step(t)
        t += 1
        entries = maintainer.ledger.entries
        assert len(entries) == t and any(e.action != e.pre_state for e in entries)
        for entry in entries:
            post, cost = maintainer.model.check_action(
                entry.pre_state, entry.action, entry.forced
            )
            assert sum(post) == entry.backlog
            assert entry.forced or cost <= maintainer.model.full_above
            assert entry.predicted_ms == maintainer.predicted_refresh_cost(
                entry.action
            )
