"""Hypothesis property tests for the relational engine.

Two families of invariants:

* **query correctness** -- random SPJ queries over random small relations
  must agree with a brute-force relational-algebra reference evaluator
  (nested loops over Python lists);
* **snapshot isolation** -- under random modification sequences, a
  snapshot taken at any LSN always equals the relation state replayed up
  to that LSN, regardless of later modifications, index existence, or
  vacuum watermarks;
* **retained snapshots** -- whatever LSN order snapshots are asked for in,
  through log truncation and vacuum, a retained or rolled-forward
  snapshot's count and hash-join build sides equal a snapshot built
  directly, and snapshots handed out earlier never change.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.snapshot import Snapshot
from repro.engine.table import ModLog
from repro.engine.types import ColumnType, Schema

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

r_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-5, 5)),
    min_size=0,
    max_size=12,
)
s_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-5, 5)),
    min_size=0,
    max_size=8,
)


def build_db(r, s, index_s):
    db = Database()
    table_r = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    table_s = db.create_table(
        "s", Schema.of(k=ColumnType.INT, b=ColumnType.INT)
    )
    for row in r:
        table_r.insert(row)
    for row in s:
        table_s.insert(row)
    if index_s:
        table_s.create_index("k")
    return db


JOIN_SPEC = QuerySpec(
    base_alias="R",
    base_table="r",
    joins=(JoinSpec("S", "s", "R.k", "k"),),
)


def reference_join(r, s, threshold=None):
    out = []
    for rk, ra in r:
        for sk, sb in s:
            if rk == sk and (threshold is None or ra > threshold):
                out.append((rk, ra, sk, sb))
    return sorted(out)


# ----------------------------------------------------------------------
# Query correctness vs brute force
# ----------------------------------------------------------------------


@given(r=r_rows, s=s_rows, index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_join_matches_bruteforce(r, s, index_s):
    db = build_db(r, s, index_s)
    result = db.execute(JOIN_SPEC)
    assert sorted(result.rows) == reference_join(r, s)


@given(r=r_rows, s=s_rows, threshold=st.integers(-5, 5),
       index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_filtered_join_matches_bruteforce(r, s, threshold, index_s):
    db = build_db(r, s, index_s)
    spec = QuerySpec(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
        filters=(col("R.a") > lit(threshold),),
    )
    result = db.execute(spec)
    assert sorted(result.rows) == reference_join(r, s, threshold)


@given(r=r_rows, s=s_rows, index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_aggregates_match_bruteforce(r, s, index_s):
    db = build_db(r, s, index_s)
    joined = reference_join(r, s)
    for func, reference in (
        ("count", len(joined) if joined else 0),
        ("min", min((row[1] for row in joined), default=None)),
        ("max", max((row[1] for row in joined), default=None)),
        ("sum", sum(row[1] for row in joined) if joined else None),
    ):
        spec = QuerySpec(
            base_alias="R",
            base_table="r",
            joins=(JoinSpec("S", "s", "R.k", "k"),),
            aggregate=AggregateSpec(func=func, value=col("R.a")),
        )
        assert db.execute(spec).scalar() == reference


@given(r=r_rows, s=s_rows)
@settings(max_examples=40, deadline=None)
def test_index_choice_never_changes_answers(r, s):
    without = build_db(r, s, index_s=False).execute(JOIN_SPEC)
    with_index = build_db(r, s, index_s=True).execute(JOIN_SPEC)
    assert sorted(without.rows) == sorted(with_index.rows)


@given(r=r_rows, s=s_rows, delta=s_rows)
@settings(max_examples=40, deadline=None)
def test_substitution_equals_replaced_table(r, s, delta):
    """Executing with a substitution must equal executing against a
    database whose table really contains the substituted rows."""
    db = build_db(r, s, index_s=False)
    substituted = db.execute(JOIN_SPEC, substitutions={"S": delta})
    direct = build_db(r, delta, index_s=False).execute(JOIN_SPEC)
    assert sorted(substituted.rows) == sorted(direct.rows)


# ----------------------------------------------------------------------
# Snapshot isolation under random modification sequences
# ----------------------------------------------------------------------

modification_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(0, 4),
        st.integers(-5, 5),
    ),
    min_size=1,
    max_size=25,
)


def apply_ops(table, ops):
    """Apply a modification script; returns the relation state after each
    LSN as a dict ``lsn -> sorted rows``."""
    states = {table.current_lsn: sorted(table.live_rows())}
    for kind, k, v in ops:
        if kind == "insert":
            table.insert((k, v))
        elif kind == "delete":
            rids = table.find_rids(lambda row: True)
            if not rids:
                continue
            table.delete_rid(rids[k % len(rids)])
        else:
            rids = table.find_rids(lambda row: True)
            if not rids:
                continue
            table.update_rid(rids[k % len(rids)], {"a": v})
        states[table.current_lsn] = sorted(table.live_rows())
    return states


@given(initial=r_rows, ops=modification_ops, with_index=st.booleans())
@settings(max_examples=50, deadline=None)
def test_snapshots_replay_history_exactly(initial, ops, with_index):
    db = Database()
    table = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    for row in initial:
        table.insert(row)
    if with_index:
        table.create_index("k")
    states = apply_ops(table, ops)
    for lsn, expected in states.items():
        assert sorted(table.snapshot(lsn).rows()) == expected


@given(initial=r_rows, ops=modification_ops)
@settings(max_examples=40, deadline=None)
def test_indexed_lookup_agrees_with_scan_at_any_lsn(initial, ops):
    db = Database()
    table = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    table.create_index("k")
    for row in initial:
        table.insert(row)
    apply_ops(table, ops)
    for lsn in range(0, table.current_lsn + 1, 3):
        snap = table.snapshot(lsn)
        for key in range(5):
            via_index = sorted(snap.lookup("k", key))
            via_scan = sorted(
                row for row in snap.rows() if row[0] == key
            )
            assert via_index == via_scan


@given(initial=r_rows, ops=modification_ops)
@settings(max_examples=30, deadline=None)
def test_vacuum_preserves_current_state_and_indexes(initial, ops):
    db = Database()
    table = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    table.create_index("k")
    for row in initial:
        table.insert(row)
    apply_ops(table, ops)
    before = sorted(table.live_rows())
    table.vacuum()
    assert sorted(table.live_rows()) == before
    snap = table.snapshot()
    for key in range(5):
        assert sorted(snap.lookup("k", key)) == sorted(
            row for row in before if row[0] == key
        )


# ----------------------------------------------------------------------
# Retained snapshots: rolled forward == built directly
# ----------------------------------------------------------------------

#: Narrow value ranges make duplicate-valued rows -- the case a
#: value-only replay cannot always order -- common.
narrow_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=6
)
#: (op, victim, k, a, snapshot pick).  ``pick`` None leaves the step
#: without a snapshot, so the next one rolls a longer window; -1 is "now"
#: (the roll-forward case); any other value selects an LSN before, at or
#: after the retained snapshot's.
retention_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "update", "delete", "truncate", "vacuum"]
        ),
        st.integers(0, 7),
        st.integers(0, 2),
        st.integers(0, 1),
        st.none() | st.just(-1) | st.integers(0, 40),
    ),
    min_size=1,
    max_size=30,
)


def _frozen(snapshot):
    """A deep copy of everything a snapshot answers with."""
    return (
        list(snapshot.row_list()),
        {
            column: {k: list(rows) for k, rows in snapshot.build_side(column).items()}
            for column in snapshot.schema.names
        },
    )


@given(initial=narrow_rows, steps=retention_steps)
# Deleting the later of two equal rows around a third: removing the first
# match instead would reorder the bucket.
@example(
    initial=[(0, 0), (0, 1), (0, 0)],
    steps=[("truncate", 0, 0, 0, -1), ("delete", 2, 0, 0, -1)],
)
@settings(max_examples=200, deadline=None)
def test_retained_snapshots_equal_direct_builds(initial, steps):
    db = Database()
    table = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    # Two-event chunks, so truncation really reclaims log windows.
    table.history = ModLog(chunk_size=2)
    for row in initial:
        table.insert(row)
    lowest = 0  # the vacuum watermark: lower LSNs are refused
    handed_out = []
    for op, victim, k, a, pick in steps:
        rids = table.find_rids(lambda row: True)
        if op == "insert":
            table.insert((k, a))
        elif op == "update" and rids:
            table.update_rid(rids[victim % len(rids)], {"a": a})
        elif op == "delete" and rids:
            table.delete_rid(rids[victim % len(rids)])
        elif op == "truncate":
            table.history.truncate()
        elif op == "vacuum":
            watermark = k * table.current_lsn // 2
            if table.vacuum(before_lsn=watermark):
                lowest = max(lowest, watermark)
        if pick is not None:
            lsn = table.current_lsn
            if pick >= 0:
                lsn = lowest + pick % (lsn - lowest + 1)
            snapshot = table.snapshot(lsn)
            direct = Snapshot(table, lsn)
            assert snapshot.count() == len(direct.row_list())
            for column in table.schema.names:
                # Same keys, and every bucket in the same order.
                assert snapshot.build_side(column) == direct.build_side(column)
            assert snapshot.count() == len(snapshot.row_list())
            assert snapshot.row_list() == direct.row_list()
            handed_out.append((snapshot, _frozen(snapshot)))
        for snapshot, original in handed_out:
            assert _frozen(snapshot) == original
