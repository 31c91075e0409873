"""Tests for the per-view maintenance ledger (``repro.ivm.ledger``).

Unit coverage of the entry/ledger data model, plus the acceptance
scenario: a coordinator hosting eight views
over shared TPC-R base tables reports per-view per-round cost, with
cumulative ledger totals agreeing with the entries ``step`` returned.
The ledger is the view's one record: a recorder holds no per-view copy
of it, so the metric names a fleet exports do not grow with the fleet.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.engine.costmodel import CostModel
from repro.ivm.ledger import (
    NO_CHARGES,
    RoundEntry,
    ViewLedger,
    float_total,
)
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_paper_spec, make_tpcr_db
from tests.ivm.test_multiview import COSTS, count_view_spec
from tests.ivm.test_sharedscan import add_naive, availqty_spec, supplycost_spec


def alpha_ledger() -> ViewLedger:
    """Two fixed rounds with hand-picked charges (used by golden tests)."""
    ledger = ViewLedger(view="alpha", aliases=("PS", "S"))
    ledger.record(
        RoundEntry(
            t=0,
            arrivals=(2, 1),
            pre_state=(2, 1),
            action=(2, 0),
            forced=False,
            predicted_ms=1.0,
            sim_ms=12.5,
            backlog=1,
            charges={"index_probes": 10, "agg_updates": 5},
        )
    )
    ledger.record(
        RoundEntry(
            t=1,
            arrivals=(1, 1),
            pre_state=(2, 1),
            action=(1, 1),
            forced=True,
            predicted_ms=2.0,
            sim_ms=7.5,
            backlog=0,
            charges={"hash_probes": 100, "sort_items": 3},
        )
    )
    return ledger


class TestRoundEntry:
    def test_mods_and_flushes(self):
        entry = alpha_ledger().entries[0]
        assert entry.mods_applied == 2
        assert entry.flushes == 1  # only the PS component flushed
        both = alpha_ledger().entries[1]
        assert both.mods_applied == 2
        assert both.flushes == 2

    def test_frozen(self):
        entry = alpha_ledger().entries[0]
        with pytest.raises(AttributeError):
            entry.t = 99


class TestSharedZeroWorkEntries:
    """Zero-work view-rounds of one round that agree on the decision
    append one entry to each of their ledgers; nobody can write to it."""

    def run(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for name, spec in [
            ("quiet_a", availqty_spec()), ("quiet_b", availqty_spec()),
            ("busy_a", supplycost_spec()), ("busy_b", supplycost_spec()),
        ]:
            add_naive(coordinator, name, spec)
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=17)
        coordinator.step(0)  # idle everywhere
        updater.apply(4)
        coordinator.step(1)  # quiet_*: suppressed whole; busy_*: flushed
        return {
            name: ledger.entries for name, ledger in coordinator.ledgers().items()
        }

    def test_one_entry_per_view_per_round_shared_only_when_zero_work(self):
        entries = self.run()
        assert all(len(of_view) == 2 for of_view in entries.values())
        idle = entries["quiet_a"][0]
        assert all(of_view[0] is idle for of_view in entries.values())
        suppressed = entries["quiet_a"][1]
        assert entries["quiet_b"][1] is suppressed
        assert (suppressed.action, suppressed.flushes) == ((4,), 1)
        # Nothing was metered for it.
        assert suppressed.sim_ms == 0.0
        assert suppressed.charges is idle.charges is NO_CHARGES
        # A round that did work is the view's own, equal or not.
        a, b = entries["busy_a"][1], entries["busy_b"][1]
        assert a is not b and a.charges == b.charges != {}
        assert a.charges is not b.charges

    def test_a_shared_entry_is_unwritable_and_reads_like_any_other(self):
        entry = self.run()["quiet_a"][1]
        with pytest.raises(AttributeError):
            entry.backlog = 7
        with pytest.raises(TypeError):
            entry.charges["agg_updates"] = 1
        with pytest.raises((TypeError, AttributeError)):
            entry.charges.update(agg_updates=1)
        # What the harness and ViewLedger read, as on a dict.
        assert not entry.charges and entry.charges == {}
        assert list(entry.charges.items()) == []
        assert entry.charges.get("agg_updates", 0) == 0
        ledger = ViewLedger("v", ("PS",), [entry, entry])
        assert ledger.charge_totals() == {}
        assert ledger.join_ms(CostModel()) == ledger.agg_ms(CostModel()) == 0.0
        mods = sum(e.mods_applied for e in ledger.entries)
        assert (ledger.flushes, mods, ledger.backlog) == (2, 8, 0)


class TestViewLedger:
    def test_cumulative_totals(self):
        ledger = alpha_ledger()
        assert len(ledger.entries) == 2
        assert ledger.flushes == 3
        assert sum(e.mods_applied for e in ledger.entries) == 4
        assert ledger.total_sim_ms == pytest.approx(20.0)
        assert ledger.backlog == 0  # last round cleared it

    def test_charge_totals_merge_fields(self):
        assert alpha_ledger().charge_totals() == {
            "index_probes": 10,
            "agg_updates": 5,
            "hash_probes": 100,
            "sort_items": 3,
        }

    def test_join_and_agg_cost_split(self):
        model = CostModel()  # index_probe=0.02 hash_probe=0.008 ...
        ledger = alpha_ledger()
        assert ledger.join_ms(model) == pytest.approx(
            10 * model.index_probe + 100 * model.hash_probe
        )
        assert ledger.agg_ms(model) == pytest.approx(
            5 * model.agg_update + 3 * model.sort_item
        )

    def test_empty_ledger(self):
        ledger = ViewLedger(view="v", aliases=("PS",))
        assert len(ledger.entries) == 0
        assert ledger.backlog == 0
        assert ledger.charge_totals() == {}
        assert ledger.total_sim_ms == 0


class TestFloatTotals:
    """Cost totals add left to right with plain additions.  ``sum()``
    compensates float sums on CPython >= 3.12, so a total that went
    through it differs in the last bit from one interpreter to the next
    (each check below fails there with ``sum()``; on 3.10/3.11 the two
    agree and this pins the order)."""

    @staticmethod
    def floats(n: int, seed: int) -> list[float]:
        rng = random.Random(seed)
        return [rng.uniform(0.0, 10.0) ** rng.randint(1, 6) for _ in range(n)]

    @staticmethod
    def loop(values) -> float:
        total = 0
        for value in values:
            total = total + value
        return total

    def entry(self, sim_ms: float) -> RoundEntry:
        return RoundEntry(
            t=0, arrivals=(1,), pre_state=(1,), action=(1,), forced=False,
            predicted_ms=1.0, sim_ms=sim_ms, backlog=0, charges={},
        )

    def test_float_total_is_the_plain_loop(self):
        values = self.floats(400, seed=1)
        assert float_total(values) == self.loop(values)
        assert float_total(iter(values)) == self.loop(values)
        assert float_total([]) == 0

    def test_ledger_totals(self):
        sims = self.floats(300, seed=2)
        ledger = ViewLedger(view="v", aliases=("PS",))
        for sim_ms in sims:
            ledger.record(self.entry(sim_ms))
        assert ledger.total_sim_ms == self.loop(sims)

    def test_maintenance_log_totals(self):
        actual = self.floats(300, seed=5)
        log = ViewLedger(view="v", aliases=("PS",))
        for a in actual:
            log.record(self.entry(a))
        # The name the benchmark harness reads the total by.
        assert log.total_actual_cost_ms == self.loop(actual)

    def test_coordinator_total(self):
        coordinator = MaintenanceCoordinator(make_tpcr_db())
        costs = self.floats(200, seed=6)
        for i in range(4):
            coordinator.add_view(ViewConfig(
                name=f"v{i}", query=count_view_spec(), policy=NaivePolicy(),
                cost_functions=(LinearCost(slope=12.0, setup=20.0),),
                limit=400.0, scheduled_aliases=("S",),
            ))
            for cost in costs[i::4]:
                coordinator.maintainer(f"v{i}").ledger.record(
                    self.entry(cost)
                )
        per_view = [self.loop(costs[i::4]) for i in range(4)]
        assert coordinator.total_cost_ms() == self.loop(per_view)

    def test_telemetry_totals(self):
        """``[0.1] * 10`` is 0.9999999999999999 added left to right and
        1.0 compensated: a decision's ``predicted_ms`` must be the
        maintainer's ``predicted_refresh_cost``, and a profile's total
        must be its nodes' left-to-right sum."""
        from repro.obs import attrib, decisions

        tenths = [0.1] * 10
        assert self.loop(tenths) == 0.9999999999999999
        with decisions.collecting() as ring:
            decisions.emit_policy_decision(
                "NAIVE", 0, (1,) * 10, (LinearCost(0.1),) * 10, 2.0,
                (1,) * 10, "flush",
            )
        assert ring.events()[0].predicted_ms == self.loop(tenths)

        profile = attrib.QueryProfile(CostModel(tuple_cpu=0.1))
        for _ in tenths:
            profile.root.child("scan", "s").tally = {"tuple_cpu": 1}
        assert profile.total_sim_ms() == self.loop(tenths)


class TestMaintainerLedger:
    def make_maintainer(self):
        db = make_tpcr_db()
        view = MaterializedView("paper", db, make_paper_spec())
        maintainer = ViewMaintainer(
            view,
            COSTS,
            limit=600.0,
            policy=OnlinePolicy(),
            scheduled_aliases=("PS", "S"),
        )
        ps = PartSuppCostUpdater(db.table("partsupp"), seed=21)
        sup = SupplierNationUpdater(db.table("supplier"), seed=22)
        return maintainer, ps, sup

    def test_one_entry_per_round(self):
        maintainer, ps, sup = self.make_maintainer()
        for t in range(6):
            ps.apply(6)
            sup.apply(1)
            maintainer.step(t)
        maintainer.refresh()
        assert len(maintainer.ledger.entries) == 7
        assert [e.t for e in maintainer.ledger.entries] == list(range(7))
        assert maintainer.ledger.entries[-1].forced
        assert maintainer.ledger.backlog == 0

    def test_ledger_agrees_with_maintenance_log(self):
        """The log *is* the ledger, and its entries are the very objects
        ``step`` and ``refresh`` returned."""
        maintainer, ps, sup = self.make_maintainer()
        returned = []
        for t in range(5):
            ps.apply(6)
            sup.apply(1)
            returned.append(maintainer.step(t))
            assert returned[-1] is maintainer.ledger.entries[-1]
        returned.append(maintainer.refresh())
        ledger = maintainer.ledger
        assert maintainer.log is ledger
        assert ledger.total_actual_cost_ms == ledger.total_sim_ms
        assert sum(e.mods_applied for e in ledger.entries) == sum(
            sum(e.action) for e in returned
        )
        for entry, step in zip(ledger.entries, returned, strict=True):
            assert entry is step

    def test_round_charges_weigh_up_to_round_cost(self):
        """Per-round charge deltas priced under the model reproduce the
        round's simulated cost exactly -- the ledger loses nothing."""
        maintainer, ps, sup = self.make_maintainer()
        model = maintainer.view.database.counter.model
        from repro.engine.costmodel import OperationCounter

        weights = OperationCounter._WEIGHT_BY_FIELD
        for t in range(4):
            ps.apply(8)
            sup.apply(1)
            maintainer.step(t)
        maintainer.refresh()
        flushed = [e for e in maintainer.ledger.entries if e.flushes]
        assert flushed, "workload never flushed; test is vacuous"
        for entry in flushed:
            priced = sum(
                count * getattr(model, weights[f])
                for f, count in entry.charges.items()
            )
            assert priced == pytest.approx(entry.sim_ms)

    def test_no_metrics_without_recorder(self):
        maintainer, ps, sup = self.make_maintainer()
        ps.apply(6)
        sup.apply(1)
        maintainer.step(0)
        # The ledger fills without a recorder: it is always on.
        assert len(maintainer.ledger.entries) == 1


class TestCoordinatorFleet:
    """The acceptance scenario: >= 8 views over shared base tables."""

    N_PAPER, N_COUNT = 4, 4

    def make_fleet(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for i in range(self.N_PAPER):
            coordinator.add_view(
                ViewConfig(
                    name=f"min_cost_{i}",
                    query=make_paper_spec(),
                    policy=OnlinePolicy() if i % 2 else NaivePolicy(),
                    cost_functions=COSTS,
                    limit=600.0 + 50.0 * i,
                    scheduled_aliases=("PS", "S"),
                )
            )
        for i in range(self.N_COUNT):
            coordinator.add_view(
                ViewConfig(
                    name=f"region_counts_{i}",
                    query=count_view_spec(),
                    policy=NaivePolicy(),
                    cost_functions=(LinearCost(slope=12.0, setup=20.0),),
                    limit=300.0 + 100.0 * i,
                    scheduled_aliases=("S",),
                )
            )
        ps = PartSuppCostUpdater(db.table("partsupp"), seed=91)
        sup = SupplierNationUpdater(db.table("supplier"), seed=92)
        return coordinator, ps, sup

    def run_fleet(self, coordinator, ps, sup, steps=5):
        for t in range(steps):
            ps.apply(6)
            sup.apply(1)
            coordinator.step(t)
        coordinator.refresh()

    def test_every_view_has_a_full_ledger(self):
        coordinator, ps, sup = self.make_fleet()
        self.run_fleet(coordinator, ps, sup)
        ledgers = coordinator.ledgers()
        assert len(ledgers) == self.N_PAPER + self.N_COUNT >= 8
        for name, ledger in ledgers.items():
            assert ledger.view == name
            assert len(ledger.entries) == 6  # 5 steps + forced refresh
            assert ledger.backlog == 0
            assert ledger.total_sim_ms > 0

    def test_ledger_snapshot_matches_cost_breakdown(self):
        coordinator, ps, sup = self.make_fleet()
        self.run_fleet(coordinator, ps, sup)
        model = coordinator.database.counter.model
        ledgers = coordinator.ledgers()
        breakdown = coordinator.cost_breakdown()
        assert set(ledgers) == set(breakdown)
        for name, ledger in ledgers.items():
            assert ledger.total_sim_ms == pytest.approx(breakdown[name])
            assert ledger.join_ms(model) + ledger.agg_ms(model) <= (
                ledger.total_sim_ms + 1e-9
            )

    def test_views_differ_per_policy_and_spec(self):
        """Eight ledgers over the same base tables are genuinely per-view:
        paper views see two scheduled aliases, count views one, and the
        per-view cost split reflects each view's own plan."""
        coordinator, ps, sup = self.make_fleet()
        self.run_fleet(coordinator, ps, sup)
        ledgers = coordinator.ledgers()
        for i in range(self.N_PAPER):
            assert ledgers[f"min_cost_{i}"].aliases == ("PS", "S")
        for i in range(self.N_COUNT):
            assert ledgers[f"region_counts_{i}"].aliases == ("S",)
        model = coordinator.database.counter.model
        paper_join = ledgers["min_cost_0"].join_ms(model)
        assert paper_join > 0  # the 4-way join pays probe work

    def test_metric_names_do_not_grow_with_the_fleet(self):
        """Every metric name is static: a recorder over the rounds of 20
        views holds the names it holds over 2, and what each view did is
        on its ledger.  Views ``a.b`` and ``a_b`` keep apart records."""

        def names_over(n_views):
            db = make_tpcr_db()
            coordinator = MaintenanceCoordinator(db)
            for i in range(n_views):
                coordinator.add_view(
                    ViewConfig(
                        name=("a.b", "a_b")[i] if i < 2 else f"counts_{i}",
                        query=count_view_spec(),
                        policy=NaivePolicy(),
                        cost_functions=(LinearCost(slope=12.0, setup=20.0),),
                        limit=300.0,
                        scheduled_aliases=("S",),
                    )
                )
            sup = SupplierNationUpdater(db.table("supplier"), seed=92)
            with obs.recording() as rec:
                for t in range(3):
                    if t != 1:  # round 1 is idle
                        sup.apply(3)
                    coordinator.step(t)
                coordinator.refresh()
            ledgers = coordinator.ledgers()
            assert len(ledgers) == n_views
            assert all(len(ledger.entries) == 4 for ledger in ledgers.values())
            return set(rec.registry.names())

        small = names_over(2)
        assert small == names_over(20)
        assert not [
            n for n in small if n.startswith(("ivm.view.", "ivm.skip."))
        ]
