"""Unit and behavior tests for shared-scan maintenance rounds."""

import copy

import pytest

from repro import obs
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.engine.errors import ExecutionError
from repro.engine.expr import Expression, col, lit
from repro.engine.query import AggregateSpec, JoinSpec, OrderSpec, QuerySpec
from repro.ivm.maintenance import apply_batch
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.sharedscan import SharedScanRound, _merge_intervals
from repro.ivm.view import MaterializedView
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_paper_spec, make_tpcr_db

NAIVE_COST = (LinearCost(slope=0.5, setup=2.0),)


def availqty_spec() -> QuerySpec:
    """Single-table aggregate that never reads ``supplycost``: every event
    of a PartSuppCostUpdater stream is a provable no-op for it."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(
            func="sum", value=col("PS.availqty"), group_by=("PS.suppkey",)
        ),
    )


def supplycost_spec() -> QuerySpec:
    """Single-table aggregate that *does* read ``supplycost``."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )


def _reshard_history(table, chunk_size: int):
    """Replace a table's ModLog with an equivalent small-chunk one, so
    truncation (whole chunks only) has granularity at test volumes."""
    from repro.engine.table import ModLog

    new = ModLog(chunk_size=chunk_size)
    for event in table.history:
        new.append(event)
    table.history = new
    return new


def add_naive(coordinator, name, spec):
    # NaivePolicy flushes only when the state is full; a limit below one
    # event's refresh cost makes every non-empty state full, so the view
    # flushes everything every step (f(0) = 0 keeps the empty state legal).
    return coordinator.add_view(
        ViewConfig(
            name=name,
            query=spec,
            policy=NaivePolicy(),
            cost_functions=NAIVE_COST,
            limit=1.0,
            scheduled_aliases=("PS",),
        )
    )


class TestMergeIntervals:
    def test_disjoint_stay_separate(self):
        assert _merge_intervals([(0, 3), (5, 8)]) == [(0, 3), (5, 8)]

    def test_overlap_and_containment_merge(self):
        assert _merge_intervals([(0, 5), (3, 8), (6, 7)]) == [(0, 8)]

    def test_adjacent_merge(self):
        assert _merge_intervals([(0, 3), (3, 6)]) == [(0, 6)]

    def test_unsorted_input(self):
        assert _merge_intervals([(5, 9), (0, 2), (1, 4)]) == [(0, 4), (5, 9)]


class TestReferencedColumns:
    def test_aggregate_view_collects_value_and_group_refs(self):
        db = make_tpcr_db()
        view = MaterializedView("v", db, availqty_spec())
        assert view.referenced_columns("PS") == {"availqty", "suppkey"}

    def test_join_keys_and_filters_count(self):
        db = make_tpcr_db()
        view = MaterializedView("v", db, make_paper_spec())
        assert view.referenced_columns("PS") == {"supplycost", "suppkey"}
        assert view.referenced_columns("S") == {"suppkey", "nationkey"}
        assert view.referenced_columns("R") == {"regionkey", "name"}

    def test_whole_row_spj_is_never_suppressible(self):
        db = make_tpcr_db()
        spec = QuerySpec(base_alias="PS", base_table="partsupp")
        view = MaterializedView("v", db, spec)
        assert view.referenced_columns("PS") is None

    def test_order_by_and_limit_are_conservative(self):
        db = make_tpcr_db()
        spec = QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            projection=("PS.partkey",),
            order_by=(OrderSpec("PS.partkey"),),
            limit=5,
        )
        view = MaterializedView("v", db, spec)
        assert view.referenced_columns("PS") is None


def proven_noop(round_, view, alias, k) -> bool:
    """The round's verdict on ``view``'s next ``k`` events of ``alias``."""
    return round_.proven_noop(
        view.deltas[alias], k, view.referenced_columns(alias)
    )


class TestSharedScanRound:
    def _setup(self):
        db = make_tpcr_db()
        views = [
            MaterializedView("a", db, availqty_spec()),
            MaterializedView("b", db, supplycost_spec()),
        ]
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=7)
        return db, views, updater

    def test_scan_charges_once_regardless_of_subscribers(self):
        db, views, updater = self._setup()
        updater.apply(20)
        for view in views:
            for delta in view.deltas.values():
                delta.pull()
        round_ = SharedScanRound(db)
        for view in views:
            round_.request(view.deltas["PS"], 20)
        before = db.counter.snapshot()
        assert round_.run() == 1
        after = db.counter.snapshot()
        # 20 update events -> 40 split rows, charged exactly once.
        assert after["tuple_cpu"] - before["tuple_cpu"] == 40
        assert round_.tables == ("partsupp",)

    def test_requests_closed_after_run(self):
        db, views, __ = self._setup()
        round_ = SharedScanRound(db)
        round_.run()
        with pytest.raises(ExecutionError, match="already ran"):
            round_.request(views[0].deltas["PS"], 1)
        with pytest.raises(ExecutionError, match="already ran"):
            round_.run()

    def test_unscanned_window_is_read_on_demand(self):
        db, views, updater = self._setup()
        updater.apply(4)
        for view in views:
            view.deltas["PS"].pull()
        round_ = SharedScanRound(db)
        round_.request(views[0].deltas["PS"], 2)
        round_.run()
        # Not requested: read when first asked for, inside the caller's
        # open window -- 4 update events, 8 row images.
        before = db.counter.snapshot()
        with db.counter.window() as window:
            batch = round_.batch_for(views[1].deltas["PS"], 4)
        assert db.counter.since(before) == {"tuple_cpu": 8}
        assert window.elapsed_ms > 0
        assert len(batch.deleted) == len(batch.inserted) == 4
        # Read once: the next ask is the same batch and charges nothing.
        before = db.counter.snapshot()
        assert round_.batch_for(views[1].deltas["PS"], 4) is batch
        assert db.counter.since(before) == {}
        # A round that never ran (a round of one) reads the same way,
        # at the same price, and fingerprints nothing.
        alone = SharedScanRound(db)
        with db.counter.window() as alone_window:
            again = alone.batch_for(views[1].deltas["PS"], 4)
        assert alone_window.elapsed_ms == window.elapsed_ms
        assert (again.deleted, again.inserted) == (
            batch.deleted, batch.inserted
        )
        assert not proven_noop(alone, views[0], "PS", 4)

    def test_fingerprint_suppresses_untouched_view_only(self):
        db, views, updater = self._setup()
        insensitive, sensitive = views
        updater.apply(10)
        for view in views:
            view.deltas["PS"].pull()
        round_ = SharedScanRound(db)
        for view in views:
            round_.request(
                view.deltas["PS"], 10, view.referenced_columns("PS")
            )
        round_.run()
        before = db.counter.snapshot()
        assert proven_noop(round_, insensitive, "PS", 10)
        assert not proven_noop(round_, sensitive, "PS", 10)
        assert db.counter.since(before) == {}  # a lookup charges nothing
        batch = round_.batch_for(sensitive.deltas["PS"], 10)
        assert len(batch.deleted) == 10 and len(batch.inserted) == 10

    def test_mixed_kind_window_never_suppressed(self):
        db, views, updater = self._setup()
        updater.apply(3)
        # Append a genuine insert: reuse an existing row's values.
        row = next(iter(db.table("partsupp").live_rows()))
        db.table("partsupp").insert(row)
        insensitive = views[0]
        insensitive.deltas["PS"].pull()
        round_ = SharedScanRound(db)
        round_.request(
            insensitive.deltas["PS"], 4, insensitive.referenced_columns("PS")
        )
        round_.run()
        assert not proven_noop(round_, insensitive, "PS", 4)


def cost_by_nation_spec() -> QuerySpec:
    """Two tables: PartSupp's delta-join reads Supplier at a snapshot."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        joins=(JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),),
        aggregate=AggregateSpec(
            func="min", value=col("PS.supplycost"), group_by=("S.nationkey",)
        ),
    )


def cost_by_supplier_spec(func: str) -> QuerySpec:
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(
            func=func, value=col("PS.supplycost"), group_by=("PS.suppkey",)
        ),
    )


def costly_rows_spec(threshold, alias: str = "PS") -> QuerySpec:
    return QuerySpec(
        base_alias=alias,
        base_table="partsupp",
        filters=(col(f"{alias}.supplycost") > lit(threshold),),
        projection=(f"{alias}.partkey", f"{alias}.supplycost"),
    )


class Tripwire(Expression):
    """A predicate that is true until armed, then raises on the first row.
    Structurally keyed, so views holding one are spec-equal."""

    armed = False

    def compile_block(self, layout):
        def check(block):
            if Tripwire.armed:
                raise RuntimeError("tripped")
            return [True] * len(block)

        return check

    def references(self):
        return frozenset()

    def key(self):
        return (Tripwire,)


class TestSharedDeltaEvaluation:
    """One delta query per (window, sign, spec key, snapshot LSNs)."""

    K = 6

    def _round(self, db, views, alias="PS"):
        """Pull every view, request and run one round over ``K`` events
        of ``alias``; returns the round and each view's batch."""
        for view in views:
            for delta in view.deltas.values():
                delta.pull()
        round_ = SharedScanRound(db)
        for view in views:
            round_.request(view.deltas[alias], self.K)
        round_.run()
        return round_, [
            round_.batch_for(view.deltas[alias], self.K) for view in views
        ]

    def _flush(self, db, views, alias="PS"):
        """Flush ``K`` events of ``alias`` into every view through one
        round; returns the window's evaluations and each view's charges."""
        round_, batches = self._round(db, views, alias)
        assert all(batch is batches[0] for batch in batches)
        charged = []
        for view in views:
            before = db.counter.snapshot()
            apply_batch(view, alias, self.K, round_)
            after = db.counter.snapshot()
            charged.append({f: after[f] - before[f] for f in after})
        return batches[0].evaluations, charged

    @staticmethod
    def _assert_consistent(views):
        for view in views:
            assert view.contents() == view.recompute(), view.name

    def test_spec_equal_views_evaluate_once_and_are_charged_alike(self):
        db = make_tpcr_db()
        views = [
            MaterializedView(name, db, cost_by_nation_spec())
            for name in ("a", "b", "c")
        ]
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        with obs.recording() as recorder:
            evaluations, charged = self._flush(db, views)
        assert len(evaluations) == 2  # deleted rows, inserted rows
        counters = recorder.registry
        assert counters.get("ivm.coordinator.delta.evaluated").value == 2
        assert counters.get("ivm.coordinator.delta.reused").value == 4
        assert counters.get("engine.queries").value == 2
        assert charged[0]["startups"] == 2 and charged[0]["index_probes"] > 0
        assert charged[1] == charged[0] and charged[2] == charged[0]
        self._assert_consistent(views)

    def test_other_alias_at_different_lsns_does_not_share(self):
        db = make_tpcr_db()
        ahead = MaterializedView("ahead", db, cost_by_nation_spec())
        behind = MaterializedView("behind", db, cost_by_nation_spec())
        SupplierNationUpdater(db.table("supplier"), seed=3).apply(4)
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        # One view has incorporated the Supplier changes, the other not:
        # the same PartSupp window joins different Supplier snapshots.
        ahead.deltas["S"].pull()
        apply_batch(ahead, "S", 4)
        assert ahead.deltas["S"].applied_lsn != behind.deltas["S"].applied_lsn
        evaluations, _ = self._flush(db, [ahead, behind])
        assert len(evaluations) == 4
        self._assert_consistent([ahead, behind])

    def test_constants_of_different_types_do_not_share(self):
        db = make_tpcr_db()
        views = [
            MaterializedView(f"v{i}", db, costly_rows_spec(threshold))
            for i, threshold in enumerate((1, 1.0, True, 1))
        ]
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        evaluations, _ = self._flush(db, views)
        assert len(evaluations) == 2 * 3  # only the two lit(1) views share
        self._assert_consistent(views)

    def test_same_table_under_another_alias_does_not_share(self):
        db = make_tpcr_db()
        views = [
            MaterializedView("ps", db, costly_rows_spec(500, alias="PS")),
            MaterializedView("p2", db, costly_rows_spec(500, alias="P2")),
        ]
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        # Same table, same window -- and still not the same query: the
        # result's columns are named after the alias.
        assert views[0].delta_keys["PS"] != views[1].delta_keys["P2"]
        for view, alias in zip(views, ("PS", "P2")):
            round_, (batch,) = self._round(db, [view], alias)
            apply_batch(view, alias, self.K, round_)
            assert len(batch.evaluations) == 2
            assert view.contents() == view.recompute()

    def test_fold_does_not_mutate_what_it_shares(self):
        db = make_tpcr_db()
        views = [
            MaterializedView("sum", db, cost_by_supplier_spec("sum")),
            MaterializedView("min", db, cost_by_supplier_spec("min")),
            MaterializedView("rows", db, QuerySpec(
                base_alias="PS", base_table="partsupp",
                projection=("PS.supplycost", "PS.suppkey"),
            )),
        ]
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        round_, (batch, *_) = self._round(db, views)
        first, *rest = views
        seen = []
        spy = MaterializedView.apply_delta

        def record(view, alias, evaluation, sign):
            seen.append(evaluation)
            spy(view, alias, evaluation, sign)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MaterializedView, "apply_delta", record)
            apply_batch(first, "PS", self.K, round_)
            held = [(e.result.rows, e.result.columns, e.folds) for e in seen]
            before = copy.deepcopy(held)
            for view in rest:
                apply_batch(view, "PS", self.K, round_)
        # All three read the same columns, so all three were handed the
        # same two evaluations; SUM and MIN also share one fold input.
        assert len(batch.evaluations) == 2
        assert {id(e) for e in seen} == {id(e) for e in seen[:2]}
        assert all(len(e.folds) == 2 for e in seen[:2])
        after = [(e.result.rows, e.result.columns, e.folds) for e in seen[:2]]
        # Later folds added their own inputs and changed none of the first's.
        for (rows0, cols0, folds0), (rows1, cols1, folds1) in zip(before, after):
            assert rows1 == rows0 and cols1 == cols0
            assert all(folds1[key] == value for key, value in folds0.items())
        for view in views:
            assert view.contents() == pytest.approx(view.recompute())

    def test_raising_query_stores_nothing_and_leaves_the_view_in_place(self):
        db = make_tpcr_db()
        spec = QuerySpec(
            base_alias="PS", base_table="partsupp", filters=(Tripwire(),),
            aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
        )
        views = [MaterializedView(name, db, spec) for name in ("a", "b")]
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        round_, batches = self._round(db, views)
        applied = [view.deltas["PS"].applied_lsn for view in views]
        contents = [view.contents() for view in views]
        try:
            Tripwire.armed = True
            for view in views:
                with pytest.raises(RuntimeError, match="tripped"):
                    apply_batch(view, "PS", self.K, round_)
        finally:
            Tripwire.armed = False
        assert len(batches[0].evaluations) == 0
        assert [view.deltas["PS"].applied_lsn for view in views] == applied
        assert [view.contents() for view in views] == contents
        # The fault gone, the same round's batch still serves both.
        for view in views:
            apply_batch(view, "PS", self.K, round_)
            assert view.contents() == view.recompute()
        assert len(batches[0].evaluations) == 2

    def test_coordinator_round_that_raises_leaves_views_consistent(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for name in ("a", "b"):
            add_naive(coordinator, name, QuerySpec(
                base_alias="PS", base_table="partsupp", filters=(Tripwire(),),
                aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
            ))
        PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(self.K)
        try:
            Tripwire.armed = True
            with pytest.raises(RuntimeError, match="tripped"):
                coordinator.step(0)
        finally:
            Tripwire.armed = False
        for _, maintainer in coordinator.iter_maintainers():
            assert maintainer.view.deltas["PS"].size == self.K
            assert maintainer.view.contents() == maintainer.view.recompute()
        coordinator.refresh(t=1)
        for _, maintainer in coordinator.iter_maintainers():
            assert not any(maintainer.view.pending_sizes().values())
            assert maintainer.view.contents() == maintainer.view.recompute()


class TestSharedMaterialization:
    """``add_view`` runs each distinct query once per run of registrations."""

    def _counts(self, recorder):
        def value(name):
            metric = recorder.registry.get(name)
            return metric.value if metric is not None else 0

        return (
            value("ivm.coordinator.delta.evaluated"),
            value("ivm.coordinator.delta.reused"),
        )

    def test_spec_equal_views_materialize_from_one_query(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        alone = MaterializedView("alone", db, supplycost_spec())
        with obs.recording() as recorder:
            charged = []
            for name in ("a", "b", "c"):
                with db.counter.window() as window:
                    view = add_naive(coordinator, name, supplycost_spec())
                charged.append(window.elapsed_ms)
                assert view.contents() == alone.contents()
            add_naive(coordinator, "rows", costly_rows_spec(500))
            add_naive(coordinator, "rows_again", costly_rows_spec(500))
        assert self._counts(recorder) == (2, 3)
        assert charged[0] > 0 and charged == [charged[0]] * 3

    def test_view_added_after_the_clock_moved_runs_its_own(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        with obs.recording() as recorder:
            add_naive(coordinator, "a", supplycost_spec())
            coordinator.step(0)  # nothing pending; the memo goes anyway
            add_naive(coordinator, "b", supplycost_spec())
            assert self._counts(recorder) == (2, 0)
            add_naive(coordinator, "c", supplycost_spec())
            assert self._counts(recorder) == (2, 1)

    def test_view_added_after_a_modification_runs_its_own(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        with obs.recording() as recorder:
            add_naive(coordinator, "a", supplycost_spec())
            PartSuppCostUpdater(db.table("partsupp"), seed=7).apply(3)
            late = add_naive(coordinator, "b", supplycost_spec())
        assert self._counts(recorder) == (2, 0)
        assert late.contents() == late.recompute()

    def test_index_built_between_registrations_is_not_papered_over(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)

        def cost_of_adding(name):
            with db.counter.window() as window:
                add_naive(coordinator, name, QuerySpec(
                    base_alias="S", base_table="supplier",
                    joins=(JoinSpec("PS", "partsupp", "S.suppkey", "suppkey"),),
                    aggregate=AggregateSpec(
                        func="count", value=col("PS.partkey"),
                        group_by=("S.nationkey",),
                    ),
                ))
            return window.elapsed_ms

        hashed = cost_of_adding("hash_join")
        assert cost_of_adding("hash_join_again") == hashed
        db.table("partsupp").create_index("suppkey")
        assert cost_of_adding("index_join") != hashed


class TestCoordinatorSharedRounds:
    def test_suppressed_rounds_stay_correct_and_visible(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "insensitive", availqty_spec())
        add_naive(coordinator, "sensitive", supplycost_spec())
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=17)
        with obs.recording() as recorder:
            for t in range(5):
                updater.apply(8)
                coordinator.step(t)
        for __, maintainer in coordinator.iter_maintainers():
            assert maintainer.view.contents() == maintainer.view.recompute()
            assert not any(maintainer.view.pending_sizes().values())
        # A fingerprint skip is an action that charged nothing.
        skipped = sum(
            1
            for ledger in coordinator.ledgers().values()
            for e in ledger.entries
            if any(e.action) and not e.charges
        )
        assert skipped == 5
        assert recorder.registry.get("ivm.coordinator.rounds").value == 5
        assert recorder.registry.get("ivm.coordinator.scan.tables").value == 5
        # The insensitive view's ledger shows rounds where mods were
        # incorporated without any join charges.
        ledger = coordinator.maintainer("insensitive").ledger
        assert sum(e.mods_applied for e in ledger.entries) == 40
        assert ledger.charge_totals() == {}

    def test_idle_rounds_emit_skip_empty_and_full_series(self):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "only", availqty_spec())
        for t in range(3):
            coordinator.step(t)  # no modifications at all
        ledger = coordinator.maintainer("only").ledger
        # An empty skip is an idle round over an empty state.
        assert [
            not any(e.action) and not any(e.pre_state) for e in ledger.entries
        ] == [True] * 3
        assert len(ledger.entries) == 3 and ledger.total_sim_ms == 0.0

    def test_log_truncates_once_all_views_catch_up(self):
        db = make_tpcr_db()
        # Small chunks so truncation has granularity at test volumes.
        log = _reshard_history(db.table("partsupp"), chunk_size=16)
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "a", availqty_spec())
        add_naive(coordinator, "b", supplycost_spec())
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=23)
        with obs.recording() as recorder:
            for t in range(6):
                updater.apply(16)
                coordinator.step(t)
        assert log.truncated_lsn > 0
        truncated = recorder.registry.get("ivm.coordinator.log_truncated")
        assert truncated is not None and truncated.value == log.truncated_lsn

    def test_truncated_logs_follow_registration(self):
        """The logs a round truncates are kept current by ``add_view`` /
        ``remove_view``: a log stays while any registered view reads it."""
        db = make_tpcr_db()
        partsupp = _reshard_history(db.table("partsupp"), chunk_size=16)
        supplier = db.table("supplier").history
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "a", availqty_spec())
        add_naive(coordinator, "b", supplycost_spec())
        coordinator.add_view(
            ViewConfig(
                name="joined", query=cost_by_nation_spec(),
                policy=NaivePolicy(), cost_functions=NAIVE_COST * 2,
                limit=1.0, scheduled_aliases=("PS", "S"),
            )
        )
        assert coordinator._logs == {partsupp: 3, supplier: 1}
        coordinator.remove_view("joined")
        coordinator.remove_view("a")
        assert coordinator._logs == {partsupp: 1}
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=23)
        for t in range(3):
            updater.apply(16)
            coordinator.step(t)
        assert partsupp.truncated_lsn > 0
        coordinator.remove_view("b")
        assert not coordinator._logs

    def test_remove_view_releases_pin_and_ledger(self):
        db = make_tpcr_db()
        log = db.table("partsupp").history
        coordinator = MaintenanceCoordinator(db)
        add_naive(coordinator, "keeper", availqty_spec())
        laggard = add_naive(coordinator, "laggard", supplycost_spec())
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=29)
        updater.apply(32)
        coordinator.step(0)
        # Make the laggard actually lag: new mods it never processes.
        updater.apply(32)
        coordinator.refresh(names=["keeper"], t=1)
        assert log.safe_truncation_lsn() == laggard.deltas["PS"].applied_lsn
        coordinator.remove_view("laggard")
        # Pin released: the log could truncate past the laggard...
        assert log.safe_truncation_lsn() == db.table("partsupp").current_lsn
        # ...and its ledger went with it; the keeper's remains.
        assert list(coordinator.ledgers()) == ["keeper"]
        assert len(coordinator.ledgers()["keeper"].entries) == 2

    def test_independent_rounds_switch_is_gone(self):
        db = make_tpcr_db()
        assert MaintenanceCoordinator(db, shared_scans=True).views == ()
        with pytest.raises(ValueError, match="ViewMaintainer.step"):
            MaintenanceCoordinator(db, shared_scans=False)
        with pytest.raises(TypeError):
            MaintenanceCoordinator(db).step(0, shared=False)
        with pytest.raises(TypeError):
            MaintenanceCoordinator(db).refresh(shared=False)
