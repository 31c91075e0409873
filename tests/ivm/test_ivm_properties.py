"""Hypothesis property tests for incremental view maintenance.

The invariant everything rests on: after ANY interleaving of base-table
modifications and partial batch applications, each view's incrementally
maintained contents equal a from-scratch recomputation at its
view-incorporated snapshot LSNs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.database import Database
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from tests.conftest import flush_all


def fresh_db(r_rows, s_rows):
    db = Database()
    r = db.create_table("r", Schema.of(k=ColumnType.INT, a=ColumnType.INT))
    s = db.create_table("s", Schema.of(k=ColumnType.INT, b=ColumnType.INT))
    for row in r_rows:
        r.insert(row)
    for row in s_rows:
        s.insert(row)
    s.create_index("k")
    return db


def spj_spec():
    return QuerySpec(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
    )


def min_spec():
    return QuerySpec(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
        aggregate=AggregateSpec(func="min", value=col("R.a")),
    )


rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-4, 4)),
    min_size=1,
    max_size=8,
)

#: One step of the interleaving script:
#: ("mod", table_choice, key, value)  -- modify a base table
#: ("apply", alias_choice, amount)   -- pull + apply a partial batch
script_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("mod"),
            st.sampled_from(["r", "s"]),
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(0, 3),
            st.integers(-4, 4),
        ),
        st.tuples(
            st.just("apply"),
            st.sampled_from(["R", "S"]),
            st.integers(1, 5),
        ),
    ),
    min_size=1,
    max_size=30,
)


def run_script(view, db, steps):
    """Execute an interleaving script, checking the invariant after every
    batch application."""
    for step in steps:
        if step[0] == "mod":
            __, table_name, kind, k, v = step
            table = db.table(table_name)
            if kind == "insert":
                table.insert((k, v))
            else:
                rids = table.find_rids(lambda row: True)
                if not rids:
                    continue
                rid = rids[k % len(rids)]
                if kind == "delete":
                    table.delete_rid(rid)
                else:
                    column = "a" if table_name == "r" else "b"
                    table.update_rid(rid, {column: v})
        else:
            __, alias, amount = step
            delta = view.deltas[alias]
            delta.pull()
            take = min(amount, delta.size)
            if take:
                apply_batch(view, alias, take)
                assert view.contents() == view.recompute()


@given(r=rows_strategy, s=rows_strategy, steps=script_steps)
@settings(max_examples=40, deadline=None)
def test_spj_view_invariant_under_interleaving(r, s, steps):
    db = fresh_db(r, s)
    view = MaterializedView("v", db, spj_spec())
    run_script(view, db, steps)
    for delta in view.deltas.values():
        delta.pull()
    flush_all(view)
    assert view.contents() == view.recompute()
    assert not view.is_stale()


@given(r=rows_strategy, s=rows_strategy, steps=script_steps)
@settings(max_examples=40, deadline=None)
def test_min_view_invariant_under_interleaving(r, s, steps):
    db = fresh_db(r, s)
    view = MaterializedView("v", db, min_spec())
    run_script(view, db, steps)
    for delta in view.deltas.values():
        delta.pull()
    flush_all(view)
    assert view.contents() == view.recompute()


def test_delta_that_joins_to_nothing_folds_nothing():
    """The example the property above finds: a scalar aggregate over an
    empty join, and a delta batch whose delta query returns no rows.  An
    empty input has no buckets -- not an empty ``()`` one, which would
    plant a phantom group on insert and miss its group on delete."""
    db = fresh_db([(0, 3)], [(1, 0)])
    view = MaterializedView("v", db, min_spec())
    assert view.contents() == view.recompute() == {}
    s = db.table("s")
    for modify in (
        lambda: s.insert((2, 0)),  # +: joins no R row
        lambda: s.delete_rid(s.find_rids(lambda row: row[0] == 2)[0]),  # -
    ):
        modify()
        view.deltas["S"].pull()
        apply_batch(view, "S", 1)
        assert view.contents() == view.recompute() == {}
        assert view.scalar() is None
    # And a view that holds a value keeps it through the same two batches.
    db.table("r").insert((1, -2))
    view.deltas["R"].pull()
    apply_batch(view, "R", 1)
    assert view.contents() == view.recompute() == {(): -2}


@given(r=rows_strategy, s=rows_strategy, steps=script_steps)
@settings(max_examples=25, deadline=None)
def test_two_views_over_shared_tables_stay_independent(r, s, steps):
    """Two views with different lags over the same base tables must each
    satisfy their own invariant (delta tables are per-view state)."""
    db = fresh_db(r, s)
    spj = MaterializedView("spj", db, spj_spec())
    agg = MaterializedView("agg", db, min_spec())
    # Drive only the SPJ view through the script; the MIN view lags fully.
    run_script(spj, db, steps)
    assert agg.contents() == agg.recompute()  # untouched, fully lagged
    for view in (spj, agg):
        for delta in view.deltas.values():
            delta.pull()
        flush_all(view)
        assert view.contents() == view.recompute()
