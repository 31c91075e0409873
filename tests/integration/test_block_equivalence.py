"""Differential tests: blocked execution == row-at-a-time execution.

The chunked :class:`~repro.engine.block.RowBlock` pipeline promises two
invariants (see ``docs/DESIGN.md``, "Execution model"):

1. **Result equivalence** -- identical rows, in identical order, for any
   block size, including view contents maintained incrementally;
2. **Charge equivalence** -- the shared
   :class:`~repro.engine.costmodel.OperationCounter` ends every workload
   with *bit-identical* tallies, so all simulated costs (the paper's
   observable) are unchanged by the refactor.

These tests drive seeded random schemas, update streams, joins, and
aggregates through the row engine (``block_size=None``) and the blocked
engine at sizes {1, 7, 64, 1024}, and compare everything.

Also here: the shared-modification-log identity tests (a base table with
8 views holds exactly one copy of its history).
"""

from __future__ import annotations

import random

import pytest

from repro.engine.block import RowBlock, blocks_to_rows, iter_blocks
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.join import NestedLoopJoin
from repro.engine.operators import Filter, Project, RowSource
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.table import ModEvent, ModLog
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch, full_refresh
from repro.ivm.view import MaterializedView

BLOCK_SIZES = (1, 7, 64, 1024)
ENGINE_MODES = (None,) + BLOCK_SIZES  # None = row-at-a-time reference
SEEDS = (3, 17, 101)


# ----------------------------------------------------------------------
# Workload construction (deterministic per seed, independent of engine)
# ----------------------------------------------------------------------


def build_db(
    block_size: int | None,
    seed: int,
    index_dim: bool | None = None,
) -> Database:
    """A two-table random database, identical for every engine mode.

    ``index_dim`` forces the join access path: ``False`` guarantees hash
    joins, ``True`` index-nested-loop, ``None`` the seed's coin flip.
    """
    rng = random.Random(seed)
    db = Database(block_size=block_size)
    fact = db.create_table(
        "fact",
        Schema.of(
            id=ColumnType.INT,
            k=ColumnType.INT,
            grp=ColumnType.INT,
            val=ColumnType.FLOAT,
        ),
    )
    dim = db.create_table(
        "dim",
        Schema.of(k=ColumnType.INT, cat=ColumnType.INT, w=ColumnType.FLOAT),
    )
    for i in range(rng.randint(40, 90)):
        fact.insert(
            (i, rng.randint(0, 9), rng.randint(0, 4), round(rng.uniform(0, 100), 3))
        )
    for k in range(10):
        dim.insert((k, rng.randint(0, 2), round(rng.uniform(0, 10), 3)))
    indexed = rng.random() < 0.5  # always drawn: keeps the stream per-seed
    if index_dim is not None:
        indexed = index_dim
    if indexed:
        dim.create_index("k")
    return db


def query_specs(seed: int) -> list[QuerySpec]:
    """A spread of SPJ(A) queries over the random database."""
    rng = random.Random(seed * 7 + 1)
    join = (JoinSpec("D", "dim", "F.k", "k"),)
    cutoff = round(rng.uniform(20, 80), 3)
    return [
        # plain scan + filter + projection
        QuerySpec(
            base_alias="F",
            base_table="fact",
            filters=(col("F.val") > lit(cutoff),),
            projection=("F.id", "F.val"),
        ),
        # equi-join (hash or index-NL depending on the random index flag)
        QuerySpec(
            base_alias="F",
            base_table="fact",
            joins=join,
            filters=(col("D.cat") != lit(1),),
            projection=("F.id", "D.w"),
        ),
        # grouped aggregates over the join
        QuerySpec(
            base_alias="F",
            base_table="fact",
            joins=join,
            aggregate=AggregateSpec(
                func=rng.choice(["min", "max", "sum", "avg", "count"]),
                value=col("F.val"),
                group_by=("F.grp",),
            ),
        ),
        # scalar aggregate with a selective (possibly empty) filter
        QuerySpec(
            base_alias="F",
            base_table="fact",
            joins=join,
            filters=(col("F.val") > lit(99.999), col("D.cat") == lit(0)),
            aggregate=AggregateSpec(func="min", value=col("F.val")),
        ),
        # distinct projection
        QuerySpec(
            base_alias="F",
            base_table="fact",
            projection=("F.grp", "F.k"),
            distinct=True,
        ),
    ]


def run_queries(block_size: int | None, seed: int):
    """Build, run every spec, and return (all result rows, final charges)."""
    db = build_db(block_size, seed)
    results = [db.execute(spec).rows for spec in query_specs(seed)]
    return results, db.counter.snapshot()


def _mutate(rng: random.Random, db: Database, steps: int) -> None:
    """A burst of random inserts/updates/deletes, identical per seed
    because both engines expose identical table state to ``find_rids``."""
    fact = db.table("fact")
    for __ in range(steps):
        action = rng.random()
        live = fact.find_rids(lambda row: True)
        if action < 0.45 or not live:
            fact.insert(
                (
                    rng.randint(1000, 9999),
                    rng.randint(0, 9),
                    rng.randint(0, 4),
                    round(rng.uniform(0, 100), 3),
                )
            )
        elif action < 0.8:
            fact.update_rid(
                rng.choice(live), {"val": round(rng.uniform(0, 100), 3)}
            )
        else:
            fact.delete_rid(rng.choice(live))


def run_ivm(block_size: int | None, seed: int):
    """Maintain a MIN view under a random update stream with random batch
    sizes; return (contents trace, final contents, recompute, charges)."""
    db = build_db(block_size, seed)
    spec = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        filters=(col("D.cat") != lit(2),),
        aggregate=AggregateSpec(func="min", value=col("F.val"), group_by=("F.grp",)),
    )
    view = MaterializedView("v", db, spec)
    rng = random.Random(seed * 13 + 5)
    trace = []
    for __ in range(12):
        _mutate(rng, db, rng.randint(0, 4))
        delta = view.deltas["F"]
        delta.pull()
        k = rng.randint(0, delta.size)
        if k:
            apply_batch(view, "F", k)
        trace.append(sorted(view.contents().items(), key=repr))
    for d in view.deltas.values():
        d.pull()
    full_refresh(view)
    return trace, view.contents(), view.recompute(), db.counter.snapshot()


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_identical_across_block_sizes(seed):
    reference_rows, reference_charges = run_queries(None, seed)
    for block_size in BLOCK_SIZES:
        rows, charges = run_queries(block_size, seed)
        assert rows == reference_rows, f"rows diverge at block_size={block_size}"
        assert charges == reference_charges, (
            f"simulated charges diverge at block_size={block_size}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_view_maintenance_identical_across_block_sizes(seed):
    ref_trace, ref_contents, ref_recompute, ref_charges = run_ivm(None, seed)
    assert ref_contents == ref_recompute  # the reference engine is sound
    for block_size in BLOCK_SIZES:
        trace, contents, recompute, charges = run_ivm(block_size, seed)
        assert trace == ref_trace
        assert contents == ref_contents
        assert recompute == ref_recompute
        assert charges == ref_charges, (
            f"simulated charges diverge at block_size={block_size}"
        )


def test_mid_query_exception_propagates():
    """A predicate raising mid-query must surface to the caller, and the
    database must remain usable afterwards."""
    db = build_db(64, seed=SEEDS[0])
    bad = QuerySpec(
        base_alias="F",
        base_table="fact",
        filters=((col("F.val") / lit(0.0)) > lit(1.0),),
    )
    with pytest.raises(ZeroDivisionError):
        db.execute(bad)
    ok = QuerySpec(base_alias="F", base_table="fact")
    assert len(db.execute(ok)) > 0


# ----------------------------------------------------------------------
# Forced hash-join plans: the probe + aggregation path
# ----------------------------------------------------------------------

AGG_FUNCS = ("min", "max", "sum", "avg", "count")


def hash_join_specs(seed: int) -> list[QuerySpec]:
    """Join-bearing specs that always plan a HashJoin probe stage (the
    driving database is built with ``index_dim=False``): one SPJ
    projection plus every aggregate function, grouped and scalar."""
    rng = random.Random(seed * 31 + 7)
    join = (JoinSpec("D", "dim", "F.k", "k"),)
    cutoff = round(rng.uniform(20, 80), 3)
    specs = [
        QuerySpec(
            base_alias="F",
            base_table="fact",
            joins=join,
            filters=(col("F.val") > lit(cutoff), col("D.cat") != lit(2)),
            projection=("F.id", "D.w", "F.val"),
        ),
    ]
    for func in AGG_FUNCS:
        specs.append(
            QuerySpec(
                base_alias="F",
                base_table="fact",
                joins=join,
                filters=(col("F.grp") < lit(4),),
                aggregate=AggregateSpec(
                    func=func, value=col("F.val"), group_by=("D.cat",)
                ),
            )
        )
    specs.append(
        QuerySpec(
            base_alias="F",
            base_table="fact",
            joins=join,
            aggregate=AggregateSpec(func="sum", value=col("D.w")),
        )
    )
    return specs


def run_hash_join_queries(block_size: int | None, seed: int):
    db = build_db(block_size, seed, index_dim=False)
    results = [db.execute(spec).rows for spec in hash_join_specs(seed)]
    return results, db.counter.snapshot()


@pytest.mark.parametrize("seed", SEEDS)
def test_hash_join_agg_identical_across_block_sizes(seed):
    """Forced hash-join plans under every aggregate function: byte-identical
    rows and byte-identical cost tables versus the row engine."""
    ref_rows, ref_charges = run_hash_join_queries(None, seed)
    for block_size in BLOCK_SIZES:
        rows, charges = run_hash_join_queries(block_size, seed)
        assert rows == ref_rows, f"rows diverge at block_size={block_size}"
        assert charges == ref_charges, (
            f"simulated charges diverge at block_size={block_size}"
        )


def run_ivm_join(block_size, seed):
    """Maintain a join-bearing MIN view (hash join forced) so the delta
    substituted probe path is exercised."""
    db = build_db(block_size, seed, index_dim=False)
    spec = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        filters=(col("D.cat") != lit(2),),
        aggregate=AggregateSpec(
            func="min", value=col("F.val"), group_by=("F.grp",)
        ),
    )
    view = MaterializedView("v", db, spec)
    rng = random.Random(seed * 37 + 3)
    trace = []
    for __ in range(8):
        _mutate(rng, db, rng.randint(0, 4))
        delta = view.deltas["F"]
        delta.pull()
        k = rng.randint(0, delta.size)
        if k:
            apply_batch(view, "F", k)
        trace.append(sorted(view.contents().items(), key=repr))
    full_refresh(view)
    return trace, view.contents(), view.recompute(), db.counter.snapshot()


def test_view_maintenance_with_hash_join_identical_across_block_sizes():
    """IVM maintenance trace through the hash-join delta path: identical
    contents at every batch boundary and identical final charges."""
    seed = SEEDS[1]
    reference = run_ivm_join(None, seed)
    assert reference[1] == reference[2]  # maintained == recompute
    for block_size in (32,) + BLOCK_SIZES:
        assert run_ivm_join(block_size, seed) == reference


def test_mid_probe_exception_propagates():
    """A poisoned predicate *above* the hash-join probe (it references a
    build-side column, so it runs post-join) must surface to the caller,
    and the database must stay usable afterwards."""
    db = build_db(64, seed=SEEDS[0], index_dim=False)
    bad = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        filters=((col("D.w") / lit(0.0)) > lit(1.0),),
    )
    with pytest.raises(ZeroDivisionError):
        db.execute(bad)
    ok = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        aggregate=AggregateSpec(func="count", value=col("F.id")),
    )
    assert db.execute(ok).rows[0][0] > 0


def test_operator_level_equivalence():
    """Exercise operators the planner does not emit (NestedLoopJoin) and
    the block fast paths (all-pass filter) directly."""
    rows_left = [(i, i % 3, float(i)) for i in range(25)]
    rows_right = [(j, j * 10) for j in range(3)]

    def build(counter):
        left = RowSource(rows_left, ("a", "b", "c"), "L", counter)
        right = RowSource(rows_right, ("b", "d"), "R", counter)
        join = NestedLoopJoin(left, right, col("L.b") == col("R.b"))
        filt = Filter(join, col("L.a") >= lit(0))  # all-pass: zero-copy path
        return Project(filt, ("L.a", "R.d"))

    ref_counter = OperationCounter()
    reference = build(ref_counter).rows()
    for block_size in BLOCK_SIZES:
        counter = OperationCounter()
        out = blocks_to_rows(build(counter).blocks(block_size))
        assert out == reference
        assert counter.snapshot() == ref_counter.snapshot()


def test_fallback_blocks_covers_custom_operators():
    """Operators without a specialized blocks() still stream correctly
    through the base-class chunker (with row-granular charging)."""
    from repro.engine.operators import Operator

    counter = OperationCounter()
    source = RowSource([(1,), (2,), (3,)], ("x",), "T", counter)
    chunks = list(Operator.blocks(source, 2))
    assert [len(c) for c in chunks] == [2, 1]
    assert blocks_to_rows(chunks) == [(1,), (2,), (3,)]
    assert counter.tuple_cpu == 3


# ----------------------------------------------------------------------
# Shared modification log: one history, N windows
# ----------------------------------------------------------------------


def _simple_view_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        aggregate=AggregateSpec(func="count", value=col("F.id")),
    )


def test_eight_views_share_one_history_copy():
    db = build_db(64, seed=5)
    fact = db.table("fact")
    baseline_events = len(fact.history)
    views = [
        MaterializedView(f"v{i}", db, _simple_view_spec()) for i in range(8)
    ]
    rng = random.Random(99)
    _mutate(rng, db, 60)
    for view in views:
        view.deltas["F"].pull()

    # Identity: every delta table windows the *same* log object; no view
    # holds a private event container of any kind.
    for view in views:
        delta = view.deltas["F"]
        assert delta.log is fact.history
        assert not hasattr(delta, "_pending")
    # Exactly one copy: the table logged one event per modification, and
    # the peeked event objects are identical (is) across all views.
    assert len(fact.history) == baseline_events + 60
    first = views[0].deltas["F"].peek(10)
    for view in views[1:]:
        other = view.deltas["F"].peek(10)
        assert all(a is b for a, b in zip(first, other, strict=True))
    # Window arithmetic: sizes agree with the log without any scan.
    for view in views:
        delta = view.deltas["F"]
        assert delta.size == delta.seen_lsn - delta.applied_lsn == 60


def test_modlog_chunked_window_and_invariants():
    log = ModLog(chunk_size=4)
    events = [
        ModEvent(lsn=i + 1, kind="insert", old_values=None, new_values=(i,))
        for i in range(11)
    ]
    for e in events:
        log.append(e)
    assert len(log) == 11
    assert list(log) == events
    # Windows spanning chunk boundaries, empty windows, and full windows.
    assert log.window(0, 11) == events
    assert log.window(3, 9) == events[3:9]
    assert log.window(7, 7) == []
    assert log[4] is events[4]
    # LSN-density is enforced: a gap or duplicate LSN is rejected.
    from repro.engine.errors import ExecutionError

    with pytest.raises(ExecutionError):
        log.append(
            ModEvent(lsn=20, kind="insert", old_values=None, new_values=(0,))
        )
    with pytest.raises(ExecutionError):
        log.window(5, 99)


def test_rowblock_views_and_iter_blocks():
    layout = {"T.a": 0, "T.b": 1}
    rows = [(1, "x"), (2, "y"), (3, "z")]
    block = RowBlock.from_rows(rows, layout)
    assert len(block) == 3
    assert block.column(1) == ["x", "y", "z"]
    assert block.rows() is block.rows()  # cached
    taken = block.take([2, 0])
    assert taken.rows() == [(3, "z"), (1, "x")]
    columnar = RowBlock.from_columns([[1, 2], ["x", "y"]], layout)
    assert columnar.rows() == [(1, "x"), (2, "y")]
    assert [len(b) for b in iter_blocks(rows, layout, 2)] == [2, 1]
    with pytest.raises(ValueError):
        list(iter_blocks(rows, layout, 0))
