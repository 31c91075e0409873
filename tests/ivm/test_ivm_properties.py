"""Named examples of incremental view maintenance.

The invariant everything rests on -- after any interleaving of base-table
modifications and partial batch applications, each view's contents equal
its query evaluated at the view's applied LSNs -- is held by the stateful
oracle, ``tests/ivm/test_oracle_machine.py``.  What stays here are two
fixed interleavings: the example a generated one found first, and two
views at different lags over the same tables.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.table import Table
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from tests.conftest import flush_all
from tests.oracle import Model, oracle_contents


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


def min_spec(aggregate=AggregateSpec(func="min", value=col("R.a"))):
    return QuerySpec(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
        aggregate=aggregate,
    )


def test_delta_that_joins_to_nothing_folds_nothing():
    """The example a generated interleaving found: a scalar aggregate
    over an empty join, and a delta batch whose delta query returns no
    rows.  An empty input has no buckets -- not an empty ``()`` one,
    which would plant a phantom group on insert and miss its group on
    delete."""
    db = fresh_db([(0, 3)], [(1, 0)])
    view = MaterializedView("v", db, min_spec())
    assert view.contents() == view.recompute() == {}
    s = db.table("s")
    for modify in (
        lambda: s.insert((2, 0)),  # +: joins no R row
        lambda: s.delete_rids(s.find_rids(lambda row: row[0] == 2)),  # -
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


def test_two_views_over_shared_tables_stay_independent():
    """Two views over the same tables at different lags each equal the
    oracle at their own applied LSNs: delta tables are per-view state."""
    rows = {"r": [(0, 3), (1, -1), (2, 4)], "s": [(0, 0), (1, 1), (1, 2)]}
    db = fresh_db(rows["r"], rows["s"])
    models = {"r": Model(("k", "a")), "s": Model(("k", "b"))}
    for name, table_rows in rows.items():
        for row in table_rows:
            models[name].insert(row)
    spj = MaterializedView("spj", db, min_spec(aggregate=None))
    agg = MaterializedView("agg", db, min_spec())
    engine = {
        "insert": Table.insert,
        "update": Table.update_rid,
        "delete": lambda table, rid: table.delete_rids([rid]),
    }
    # Only the SPJ view is maintained; the MIN view lags throughout.  R's
    # insert must join S before S's pending update, and the last batch
    # takes the older of two pending S modifications.
    for name, op, args, k in (
        ("s", "update", [1, {"b": 9}], 0),
        ("r", "insert", [(1, -5)], 1),
        ("r", "delete", [0], 1),
        ("s", "insert", [(2, 7)], 1),
    ):
        engine[op](db.table(name), *args)
        getattr(models[name], op)(*args)
        alias = name.upper()
        spj.deltas[alias].pull()
        apply_batch(spj, alias, k)
        for view in (spj, agg):
            lsns = {a: d.applied_lsn for a, d in view.deltas.items()}
            assert view.contents() == oracle_contents(models, view.spec, lsns)
    for view in (spj, agg):
        for delta in view.deltas.values():
            delta.pull()
        flush_all(view)
        assert view.contents() == oracle_contents(models, view.spec, None)
