"""Tests for materialized views and batch delta propagation.

The central correctness property: after any interleaving of base-table
modifications and partial batch applications, the view's incrementally
maintained contents equal a from-scratch recomputation at the
view-incorporated snapshot LSNs -- i.e. no state bug.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from tests.conftest import flush_all, make_paper_spec, make_tpcr_db


def make_join_db():
    db = Database()
    r = db.create_table("r", Schema.of(k=ColumnType.INT, a=ColumnType.INT))
    s = db.create_table("s", Schema.of(k=ColumnType.INT, b=ColumnType.INT))
    for i in range(6):
        r.insert((i % 3, i))
    for i in range(3):
        s.insert((i, i * 10))
    return db


def join_spec(**overrides):
    defaults = dict(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
    )
    defaults.update(overrides)
    return QuerySpec(**defaults)


class TestSPJView:
    def test_initial_contents(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        contents = view.contents()
        assert sum(contents.values()) == 6  # every r row joins one s row

    def test_insert_propagation(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        db.table("r").insert((0, 99))
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute()
        assert sum(view.contents().values()) == 7

    def test_delete_propagation(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        db.table("r").delete_rids([0])
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute()
        assert sum(view.contents().values()) == 5

    def test_update_propagation(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        db.table("s").update_rid(0, {"b": 777})
        view.deltas["S"].pull()
        apply_batch(view, "S", 1)
        assert view.contents() == view.recompute()

    def test_duplicates_tracked_as_multiset(self):
        db = make_join_db()
        db.table("r").insert((0, 0))  # duplicate of rid 0's values
        view = MaterializedView("v", db, join_spec())
        dup_count = [c for c in view.contents().values() if c == 2]
        assert dup_count  # at least one row with multiplicity 2

    def test_projection_view(self):
        db = make_join_db()
        view = MaterializedView(
            "v", db, join_spec(projection=("R.k", "S.b"))
        )
        db.table("r").insert((1, 50))
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute()

    def test_deferred_view_sees_old_state(self):
        """Modifications not yet applied must not affect contents."""
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        before = view.contents()
        db.table("r").insert((0, 99))
        db.table("s").update_rid(0, {"b": -1})
        for d in view.deltas.values():
            d.pull()
        assert view.contents() == before
        assert any(view.pending_sizes().values())
        assert view.contents() == view.recompute()  # recompute at old LSNs


class TestStateBugSafety:
    def test_interleaved_partial_batches(self):
        """The classic state-bug scenario: R's batch must join S at the
        state the view has incorporated, not S's current state."""
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        # Both tables are modified; S's modification stays unprocessed.
        db.table("r").insert((0, 99))
        db.table("s").update_rid(0, {"b": 12345})
        for d in view.deltas.values():
            d.pull()
        apply_batch(view, "R", 1)  # processes R against *old* S
        assert view.contents() == view.recompute()
        # The derived row for (0, 99) must use the old S.b value.
        joined_bs = {row[3] for row in view.contents()}
        assert 12345 not in joined_bs
        # Now process S; the update flows through, including for (0, 99).
        apply_batch(view, "S", 1)
        assert view.contents() == view.recompute()
        joined_bs = {row[3] for row in view.contents()}
        assert 12345 in joined_bs

    def test_randomized_interleaving_invariant(self):
        rng = random.Random(99)
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        r, s = db.table("r"), db.table("s")
        for __ in range(120):
            op = rng.random()
            if op < 0.4:
                r.insert((rng.randint(0, 2), rng.randint(0, 100)))
            elif op < 0.55:
                rids = r.find_rids(lambda row: True)
                if rids:
                    r.delete_rids([rng.choice(rids)])
            elif op < 0.75:
                rids = s.find_rids(lambda row: True)
                if rids:
                    s.update_rid(rng.choice(rids), {"b": rng.randint(0, 100)})
            else:
                alias = rng.choice(["R", "S"])
                delta = view.deltas[alias]
                delta.pull()
                if delta.size:
                    apply_batch(view, alias, rng.randint(1, delta.size))
                    assert view.contents() == view.recompute()
        for d in view.deltas.values():
            d.pull()
        flush_all(view)
        assert view.contents() == view.recompute()
        assert not any(view.pending_sizes().values())


class TestAggregateView:
    def make_min_view(self):
        db = make_join_db()
        spec = join_spec(
            aggregate=AggregateSpec(func="min", value=col("R.a")),
        )
        return db, MaterializedView("v", db, spec)

    def test_initial_scalar(self):
        __, view = self.make_min_view()
        assert view.scalar() == 0

    def test_min_tracks_deletes(self):
        db, view = self.make_min_view()
        # Delete the row carrying the minimum a = 0 (rid 0).
        db.table("r").delete_rids([0])
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.scalar() == 1
        assert view.contents() == view.recompute()

    def test_min_tracks_inserts(self):
        db, view = self.make_min_view()
        db.table("r").insert((2, -5))
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.scalar() == -5

    def test_supplier_style_update_moves_whole_group(self):
        db, view = self.make_min_view()
        # Re-keying an s row drops/adds all matching r rows at once.
        db.table("s").update_rid(0, {"k": 99})
        view.deltas["S"].pull()
        apply_batch(view, "S", 1)
        assert view.contents() == view.recompute()
        assert view.scalar() == 1  # rows with k=0 (a=0,3) left the join

    def test_empty_view_scalar_none(self):
        db = make_join_db()
        spec = join_spec(
            filters=(col("S.b") == lit(-1),),
            aggregate=AggregateSpec(func="min", value=col("R.a")),
        )
        view = MaterializedView("v", db, spec)
        assert view.scalar() is None

    @pytest.mark.parametrize("func", ["count", "sum", "min", "max"])
    def test_empty_global_aggregate_is_no_group(self, func):
        # The engine answers a global aggregate over nothing with one
        # row (None, or 0 for COUNT); a view keeps no empty group, at
        # creation or after its last row went, and recompute() agrees.
        db = Database()
        r = db.create_table("r", Schema.of(k=ColumnType.INT, a=ColumnType.INT))
        spec = QuerySpec(
            base_alias="R", base_table="r",
            aggregate=AggregateSpec(func=func, value=col("R.a")),
        )
        view = MaterializedView("v", db, spec)
        assert view.contents() == view.recompute() == {}
        r.insert((2, 0))
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute() == {(): 1 if func == "count" else 0}
        r.delete_rids([0])
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute() == {}

    def test_grouped_aggregate_view(self):
        db = make_join_db()
        spec = join_spec(
            aggregate=AggregateSpec(
                func="sum", value=col("R.a"), group_by=("S.b",)
            ),
        )
        view = MaterializedView("v", db, spec)
        db.table("r").insert((1, 40))
        view.deltas["R"].pull()
        apply_batch(view, "R", 1)
        assert view.contents() == view.recompute()

    def test_apply_insert_rows_on_the_paper_view(self):
        # The one caller outside src/: the harness's --fault perturb_view
        # folds a row the base tables never held, with this very call.
        view = MaterializedView("v", make_tpcr_db(), make_paper_spec())
        before = view.contents()
        assert before == view.recompute()
        view.apply_insert_rows([(-1.0,)], {"PS.supplycost": 0})
        assert view.contents() == {(): -1.0} != before
        assert view.contents() != view.recompute()

    def test_scalar_guard_on_spj_view(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        with pytest.raises(Exception):
            view.scalar()


class TestApplyBatchErrors:
    def test_unknown_alias(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        with pytest.raises(ExecutionError, match="no base table"):
            apply_batch(view, "Z", 1)

    def test_too_large_batch(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        with pytest.raises(ExecutionError, match="only 0 pending"):
            apply_batch(view, "R", 1)

    def test_zero_batch_is_noop(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        before = view.contents()
        apply_batch(view, "R", 0)
        assert view.contents() == before


class TestRefreshHelpers:
    def test_full_refresh_clears_everything(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        db.table("r").insert((0, 1))
        db.table("s").update_rid(1, {"b": 5})
        for d in view.deltas.values():
            d.pull()
        flush_all(view)
        assert not any(view.pending_sizes().values())
        assert view.contents() == view.recompute()

    def test_pending_sizes(self):
        db = make_join_db()
        view = MaterializedView("v", db, join_spec())
        db.table("r").insert((0, 1))
        view.deltas["R"].pull()
        assert view.pending_sizes() == {"R": 1, "S": 0}
