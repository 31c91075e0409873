"""Differential tests: every block size == the row engine == plain Python.

The :class:`~repro.engine.block.RowBlock` pipeline promises two
invariants (see ``DESIGN.md``, "Execution model"):

1. **Result equivalence** -- identical rows, in identical order, for any
   block size, including view contents maintained incrementally;
2. **Charge equivalence** -- the shared
   :class:`~repro.engine.costmodel.OperationCounter` ends every workload
   with *bit-identical* tallies, so all simulated costs (the paper's
   observable) are independent of the block size.

These tests drive seeded random schemas, update streams, joins, and
aggregates through the engine at sizes {1, 7, 64, 1024} and hold each
size to two references:

* :data:`FROZEN` -- what the row-at-a-time engine (``block_size=None``,
  deleted in PR 15) produced for the same workloads at its last commit:
  the final charge table, each query's row count and first/last row, and
  the final view contents;
* :func:`~tests.oracle.oracle_rows` -- a plain-Python evaluator (nested
  loops, ``dict`` group-by) over row-by-row models of the tables that
  imports no engine operator, checked against every query result and
  against the view contents at every applied LSN.

Also here: the shared-modification-log identity tests (a base table with
8 views holds exactly one copy of its history).
"""

from __future__ import annotations

import operator
import random
from collections import deque

import pytest

from repro.engine.block import RowBlock, blocks_to_rows, iter_blocks
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.expr import col, lit
from repro.engine.operators import Filter, Project, RowSource
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.table import ModEvent, ModLog
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from tests.conftest import flush_all
from tests.oracle import Model, oracle_contents, oracle_rows

BLOCK_SIZES = (1, 7, 64, 1024)
SEEDS = (3, 17, 101)


# ----------------------------------------------------------------------
# Workload construction (deterministic per seed, independent of engine)
# ----------------------------------------------------------------------


def build_db(
    block_size: int,
    seed: int,
    index_dim: bool | None = None,
) -> Database:
    """A two-table random database, identical for every block size.

    ``index_dim`` forces the join access path: ``False`` guarantees hash
    joins, ``True`` index-nested-loop, ``None`` the seed's coin flip.
    """
    fact_rows, dim_rows, indexed = _initial_rows(seed)
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
    for row in fact_rows:
        fact.insert(row)
    for row in dim_rows:
        dim.insert(row)
    if index_dim is not None:
        indexed = index_dim
    if indexed:
        dim.create_index("k")
    return db


def _initial_rows(seed: int):
    """``(fact rows, dim rows, whether to index dim.k)`` for a seed."""
    rng = random.Random(seed)
    fact = [
        (i, rng.randint(0, 9), rng.randint(0, 4), round(rng.uniform(0, 100), 3))
        for i in range(rng.randint(40, 90))
    ]
    dim = [(k, rng.randint(0, 2), round(rng.uniform(0, 10), 3)) for k in range(10)]
    indexed = rng.random() < 0.5  # always drawn: keeps the stream per-seed
    return fact, dim, indexed


def build_models(seed: int) -> dict[str, Model]:
    """The oracle's models of :func:`build_db`'s tables."""
    fact_rows, dim_rows, _ = _initial_rows(seed)
    models = {
        "fact": Model(("id", "k", "grp", "val"), floats=("val",)),
        "dim": Model(("k", "cat", "w"), floats=("w",)),
    }
    for name, rows in (("fact", fact_rows), ("dim", dim_rows)):
        for row in rows:
            models[name].insert(row)
    return models


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


def run_queries(block_size: int, seed: int, specs=query_specs, index_dim=None):
    """Build, run every spec; return (db, all result rows, final charges)."""
    db = build_db(block_size, seed, index_dim)
    results = [db.execute(spec).rows for spec in specs(seed)]
    return db, results, db.counter.snapshot()


def _mutate(rng: random.Random, db: Database, model: Model, steps: int) -> None:
    """A burst of random inserts/updates/deletes, identical per seed
    because ``find_rids`` sees identical table state at every block size;
    each is made to ``model`` of the fact table too."""
    fact = db.table("fact")
    for __ in range(steps):
        action = rng.random()
        live = fact.find_rids(lambda row: True)
        if action < 0.45 or not live:
            row = (
                rng.randint(1000, 9999),
                rng.randint(0, 9),
                rng.randint(0, 4),
                round(rng.uniform(0, 100), 3),
            )
            fact.insert(row)
            model.insert(row)
        elif action < 0.8:
            rid, changes = rng.choice(live), {"val": round(rng.uniform(0, 100), 3)}
            fact.update_rid(rid, changes)
            model.update(rid, changes)
        else:
            rid = rng.choice(live)
            fact.delete_rids([rid])
            model.delete(rid)


def run_ivm(block_size: int, seed: int, hash_join: bool = False):
    """Maintain a MIN view under a random update stream with random batch
    sizes; return (view, trace, recompute, final charges, models) where
    ``trace`` holds the (applied LSNs, contents) after every batch and
    after the final refresh, the charges include that one engine
    recompute, and ``models`` are the oracle's models of the tables.

    ``hash_join`` forces the un-indexed dimension, so the delta-substituted
    probe path is exercised (a shorter stream with its own seed, no final
    pull -- the shape the frozen row-engine run had).
    """
    db = build_db(block_size, seed, index_dim=False if hash_join else None)
    spec = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
        filters=(col("D.cat") != lit(2),),
        aggregate=AggregateSpec(func="min", value=col("F.val"), group_by=("F.grp",)),
    )
    view = MaterializedView("v", db, spec)
    models = build_models(seed)
    rng = random.Random(seed * 37 + 3 if hash_join else seed * 13 + 5)
    trace = []

    def record():
        lsns = {alias: d.applied_lsn for alias, d in view.deltas.items()}
        trace.append((lsns, view.contents()))

    for __ in range(8 if hash_join else 12):
        _mutate(rng, db, models["fact"], rng.randint(0, 4))
        delta = view.deltas["F"]
        delta.pull()
        k = rng.randint(0, delta.size)
        if k:
            apply_batch(view, "F", k)
        record()
    if not hash_join:
        for d in view.deltas.values():
            d.pull()
    flush_all(view)
    record()
    return view, trace, view.recompute(), db.counter.snapshot(), models


# ----------------------------------------------------------------------
# Reference 1: the row engine's last results, frozen at its final commit
# ----------------------------------------------------------------------

# fmt: off
FROZEN = {
    ("queries", 3): {
        "charges": {
            "page_reads": 5, "tuple_cpu": 496, "compares": 165,
            "index_probes": 110, "hash_builds": 0, "hash_probes": 55,
            "row_writes": 65, "index_maintains": 10, "agg_updates": 55,
            "sort_items": 0, "startups": 5,
        },
        "results": [
            (8, (12, 96.409), (53, 97.137)),
            (48, (0, 4.511), (54, 4.352)),
            (5, (0, 97.137), (4, 90.47)),
            (1, (None,), (None,)),
            (31, (4, 9), (2, 4)),
        ],
    },
    ("ivm", 3): {
        "charges": {
            "page_reads": 3, "tuple_cpu": 320, "compares": 160,
            "index_probes": 160, "hash_builds": 0, "hash_probes": 0,
            "row_writes": 104, "index_maintains": 10, "agg_updates": 58,
            "sort_items": 2, "startups": 21,
        },
        "contents": {
            (4,): 1.317, (2,): 36.02, (1,): 36.396, (3,): 47.611, (0,): 4.419,
        },
    },
    ("hash_join", 3): {
        "charges": {
            "page_reads": 14, "tuple_cpu": 793, "compares": 374,
            "index_probes": 0, "hash_builds": 70, "hash_probes": 319,
            "row_writes": 65, "index_maintains": 0, "agg_updates": 275,
            "sort_items": 0, "startups": 7,
        },
        "results": [
            (19, (3, 0.799, 55.078), (53, 3.278, 97.137)),
            (3, (0, 4.419), (2, 0.723)),
            (3, (0, 97.137), (2, 96.409)),
            (3, (0, 604.591), (2, 1324.7539999999997)),
            (3, (0, 54.962818181818186), (2, 47.31264285714285)),
            (3, (0, 11), (2, 28)),
            (1, (246.49300000000002,), (246.49300000000002,)),
        ],
    },
    ("ivm_join", 3): {
        "charges": {
            "page_reads": 16, "tuple_cpu": 416, "compares": 138,
            "index_probes": 0, "hash_builds": 140, "hash_probes": 138,
            "row_writes": 84, "index_maintains": 0, "agg_updates": 52,
            "sort_items": 0, "startups": 14,
        },
        "contents": {
            (4,): 1.317, (2,): 36.02, (1,): 23.576, (3,): 39.496, (0,): 4.419,
        },
    },
    ("queries", 17): {
        "charges": {
            "page_reads": 10, "tuple_cpu": 666, "compares": 219,
            "index_probes": 146, "hash_builds": 0, "hash_probes": 73,
            "row_writes": 83, "index_maintains": 10, "agg_updates": 73,
            "sort_items": 0, "startups": 5,
        },
        "results": [
            (38, (0, 96.049), (71, 91.293)),
            (44, (1, 8.371), (67, 6.264)),
            (5, (0, 96.154), (4, 91.998)),
            (1, (None,), (None,)),
            (40, (2, 6), (4, 5)),
        ],
    },
    ("ivm", 17): {
        "charges": {
            "page_reads": 4, "tuple_cpu": 376, "compares": 188,
            "index_probes": 188, "hash_builds": 0, "hash_probes": 0,
            "row_writes": 113, "index_maintains": 10, "agg_updates": 160,
            "sort_items": 0, "startups": 18,
        },
        "contents": {
            (2,): 1.268, (3,): 1.21, (0,): 2.756, (1,): 3.213, (4,): 1.051,
        },
    },
    ("hash_join", 17): {
        "charges": {
            "page_reads": 21, "tuple_cpu": 1027, "compares": 478,
            "index_probes": 0, "hash_builds": 70, "hash_probes": 413,
            "row_writes": 83, "index_maintains": 0, "agg_updates": 373,
            "sort_items": 0, "startups": 7,
        },
        "results": [
            (33, (0, 1.246, 96.049), (71, 1.246, 91.293)),
            (3, (0, 1.21), (2, 0.976)),
            (3, (0, 96.154), (2, 98.781)),
            (3, (0, 1225.398), (2, 646.539)),
            (3, (0, 53.278173913043474), (2, 53.87825)),
            (3, (0, 23), (2, 12)),
            (1, (330.4000000000002,), (330.4000000000002,)),
        ],
    },
    ("ivm_join", 17): {
        "charges": {
            "page_reads": 16, "tuple_cpu": 464, "compares": 172,
            "index_probes": 0, "hash_builds": 120, "hash_probes": 172,
            "row_writes": 104, "index_maintains": 0, "agg_updates": 144,
            "sort_items": 0, "startups": 12,
        },
        "contents": {
            (2,): 1.52, (3,): 1.21, (0,): 2.756, (1,): 22.906, (4,): 1.051,
        },
    },
    ("queries", 101): {
        "charges": {
            "page_reads": 10, "tuple_cpu": 733, "compares": 231,
            "index_probes": 154, "hash_builds": 0, "hash_probes": 77,
            "row_writes": 87, "index_maintains": 10, "agg_updates": 77,
            "sort_items": 0, "startups": 5,
        },
        "results": [
            (56, (0, 92.398), (76, 57.689)),
            (61, (0, 7.127), (76, 0.618)),
            (5, (0, 830.337), (4, 865.7100000000002)),
            (1, (None,), (None,)),
            (42, (4, 3), (1, 9)),
        ],
    },
    ("ivm", 101): {
        "charges": {
            "page_reads": 4, "tuple_cpu": 400, "compares": 200,
            "index_probes": 200, "hash_builds": 0, "hash_probes": 0,
            "row_writes": 128, "index_maintains": 10, "agg_updates": 130,
            "sort_items": 0, "startups": 21,
        },
        "contents": {
            (0,): 1.324, (2,): 1.852, (3,): 4.897, (1,): 9.562, (4,): 2.968,
        },
    },
    ("hash_join", 101): {
        "charges": {
            "page_reads": 21, "tuple_cpu": 1046, "compares": 491,
            "index_probes": 0, "hash_builds": 70, "hash_probes": 416,
            "row_writes": 87, "index_maintains": 0, "agg_updates": 387,
            "sort_items": 0, "startups": 7,
        },
        "results": [
            (21, (6, 1.105, 76.989), (73, 9.076, 89.619)),
            (3, (0, 1.324), (2, 7.684)),
            (3, (0, 95.712), (2, 98.138)),
            (3, (0, 1469.2459999999999), (2, 926.8909999999998)),
            (3, (0, 52.47307142857142), (2, 46.34454999999999)),
            (3, (0, 28), (2, 20)),
            (1, (391.554,), (391.554,)),
        ],
    },
    ("ivm_join", 101): {
        "charges": {
            "page_reads": 16, "tuple_cpu": 492, "compares": 186,
            "index_probes": 0, "hash_builds": 120, "hash_probes": 186,
            "row_writes": 110, "index_maintains": 0, "agg_updates": 126,
            "sort_items": 8, "startups": 12,
        },
        "contents": {
            (0,): 1.324, (2,): 1.852, (3,): 5.749, (1,): 44.873, (4,): 4.832,
        },
    },
}
# fmt: on


def summarize(results) -> list[tuple]:
    """(row count, first row, last row) per query: the frozen shape."""
    return [
        (len(rows), rows[0] if rows else None, rows[-1] if rows else None)
        for rows in results
    ]


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------


def check_queries(suite: str, seed: int, specs, index_dim) -> None:
    frozen = FROZEN[suite, seed]
    for block_size in BLOCK_SIZES:
        db, results, charges = run_queries(block_size, seed, specs, index_dim)
        at = f"at block_size={block_size}"
        assert charges == frozen["charges"], f"simulated charges diverge {at}"
        assert summarize(results) == frozen["results"], f"rows diverge {at}"
        models = build_models(seed)
        for spec, rows in zip(specs(seed), results, strict=True):
            assert rows == oracle_rows(models, spec), f"{spec} != oracle {at}"


def check_ivm(suite: str, seed: int, hash_join: bool) -> None:
    frozen = FROZEN[suite, seed]
    for block_size in BLOCK_SIZES:
        view, trace, recompute, charges, models = run_ivm(
            block_size, seed, hash_join
        )
        at = f"at block_size={block_size}"
        assert charges == frozen["charges"], f"simulated charges diverge {at}"
        assert trace[-1][1] == frozen["contents"], f"contents diverge {at}"
        assert recompute == frozen["contents"]
        for lsns, contents in trace:
            expected = oracle_contents(models, view.spec, lsns)
            assert contents == expected, f"view != oracle at LSNs {lsns} {at}"


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_identical_across_block_sizes(seed):
    check_queries("queries", seed, query_specs, index_dim=None)


@pytest.mark.parametrize("seed", SEEDS)
def test_view_maintenance_identical_across_block_sizes(seed):
    check_ivm("ivm", seed, hash_join=False)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_hash_join_agg_identical_across_block_sizes(seed):
    """Forced hash-join plans under every aggregate function: the row
    engine's frozen cost tables and the oracle's rows at every size."""
    check_queries("hash_join", seed, hash_join_specs, index_dim=False)


def test_view_maintenance_with_hash_join_identical_across_block_sizes():
    """IVM maintenance trace through the hash-join delta path: oracle
    contents at every batch boundary and the frozen final charges."""
    for seed in SEEDS:
        check_ivm("ivm_join", seed, hash_join=True)


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
    """Exercise the block fast path the planner's plans rarely isolate
    (an all-pass filter hands its blocks through uncopied) directly."""
    rows = [(i, i % 3, float(i)) for i in range(25)]

    def build(counter):
        source = RowSource(rows, ("a", "b", "c"), "L", counter)
        filt = Filter(source, col("L.a") >= lit(0))  # all-pass: zero-copy path
        return Project(filt, ("L.a", "L.b"))

    # Frozen, by hand: the source and the projection charge one
    # tuple_cpu per row each, the filter one compare per row.
    reference = [(a, a % 3) for a in range(25)]
    charges = dict.fromkeys(OperationCounter().snapshot(), 0)
    charges.update(tuple_cpu=25 + 25, compares=25)
    for block_size in BLOCK_SIZES:
        counter = OperationCounter()
        out = blocks_to_rows(build(counter).blocks(block_size))
        assert out == reference
        assert counter.snapshot() == charges


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
    _mutate(rng, db, build_models(5)["fact"], 60)
    for view in views:
        view.deltas["F"].pull()

    # Identity: every delta table windows the *same* log object; no view
    # holds a private event container of any kind.
    for view in views:
        delta = view.deltas["F"]
        assert delta.log is fact.history
        assert not any(
            isinstance(held, (list, tuple, dict, set, deque))
            for held in vars(delta).values()
        )
    # Exactly one copy: the table logged one event per modification, and
    # the row tuples each view's window reads are identical (is) across
    # all views -- the columns are cut per read, the rows are not.
    assert len(fact.history) == baseline_events + 60

    def window(view):
        delta = view.deltas["F"]
        return delta.log.columns(delta.applied_lsn, delta.applied_lsn + 10)

    first = window(views[0])
    for view in views[1:]:
        for ours, theirs in zip(first, window(view), strict=True):
            assert all(map(operator.is_, ours, theirs))
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
    news = [e.new_values for e in events]
    assert log.columns(0, 11) == ([None] * 11, news)
    assert log.columns(3, 9) == ([None] * 6, news[3:9])
    assert log.columns(7, 7) == ([], [])
    assert log[4] == events[4]
    # LSN-density is enforced: a gap or duplicate LSN is rejected.
    with pytest.raises(ExecutionError):
        log.append(
            ModEvent(lsn=20, kind="insert", old_values=None, new_values=(0,))
        )
    with pytest.raises(ExecutionError):
        log.columns(5, 99)


def test_rowblock_views_and_iter_blocks():
    layout = {"T.a": 0, "T.b": 1}
    rows = [(1, "x"), (2, "y"), (3, "z")]
    block = RowBlock.from_rows(rows, layout)
    assert len(block) == 3
    assert block.column(1) == ["x", "y", "z"]
    assert block.rows() is block.rows()  # cached
    columnar = RowBlock.from_columns([[1, 2], ["x", "y"]], layout)
    assert columnar.rows() == [(1, "x"), (2, "y")]
    assert [len(b) for b in iter_blocks(rows, layout, 2)] == [2, 1]
    with pytest.raises(ValueError):
        list(iter_blocks(rows, layout, 0))
