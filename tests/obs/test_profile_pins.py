"""Pinned EXPLAIN ANALYZE trees: every node's kind, label, tally and
output counts, for one query of each plan shape at four block sizes.

A profile node's tally is a difference of the shared
:class:`~repro.engine.costmodel.OperationCounter` taken around the
operator's own pulls, so these pins fail if a charge moves between
operators, goes unattributed or lands twice.  ``profile_pins.json`` was
written from :func:`observed` and is compared as-is; a tally is a dict,
so only its counts are pinned, not its key order.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.operators import PrescannedRows
from repro.engine.query import AggregateSpec, JoinSpec, OrderSpec, QuerySpec
from repro.engine.types import ColumnType, Schema

BLOCK_SIZES = (1, 7, 64, 1024)

PINS = os.path.join(os.path.dirname(__file__), "profile_pins.json")


def make_db(block_size: int) -> Database:
    """``t`` (40 rows), un-indexed ``d`` (5 rows), indexed ``di`` (5 rows)."""
    db = Database(block_size=block_size)
    t = db.create_table(
        "t", Schema.of(k=ColumnType.INT, grp=ColumnType.INT, v=ColumnType.FLOAT)
    )
    d = db.create_table("d", Schema.of(k=ColumnType.INT, w=ColumnType.FLOAT))
    di = db.create_table("di", Schema.of(k=ColumnType.INT, w=ColumnType.FLOAT))
    t.insert_rows((i % 5, i % 3, float(i)) for i in range(40))
    d.insert_rows((k, k * 10.0) for k in range(5))
    di.insert_rows((k, k * 10.0) for k in range(5))
    di.create_index("k")
    return db


def scan_filter_project(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        filters=(col("T.grp") != lit(1),),
        projection=("T.k", "T.v"),
    ), None


def inl_join(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        joins=(JoinSpec("D", "di", "T.k", "k"),),
        projection=("T.v", "D.w"),
    ), None


HASH_JOIN = QuerySpec(
    base_alias="T", base_table="t",
    joins=(JoinSpec("D", "d", "T.k", "k"),),
    filters=(col("T.grp") == lit(0),),
    projection=("T.v", "D.w"),
)


def hash_join_snapshot(db):
    return HASH_JOIN, None


def hash_join_row_source(db):
    return HASH_JOIN, {"D": [(k, k * 2.0) for k in (0, 1, 1, 3)]}


def hash_join_rolled(db):
    """Run once, then update one row of ``d``: the profiled run reads a
    later snapshot, whose build side is rolled forward and derives the
    updated key's bucket when probed (uncharged)."""
    db.execute(HASH_JOIN)
    d = db.table("d")
    d.update_rid(d.live_rids()[2], {"w": 99.0})
    return HASH_JOIN, None


def prescanned_source(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        joins=(JoinSpec("D", "di", "T.k", "k"),),
        projection=("T.v", "D.w"),
    ), {"T": PrescannedRows([(1, 0, 1.5), (3, 2, 2.5), (9, 0, 3.5)])}


def grouped_aggregate(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        joins=(JoinSpec("D", "d", "T.k", "k"),),
        filters=(col("T.grp") != lit(1),),
        aggregate=AggregateSpec(func="min", value=col("T.v"), group_by=("D.w",)),
    ), None


def scalar_aggregate(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        filters=(col("T.k") < lit(3),),
        aggregate=AggregateSpec(func="sum", value=col("T.v")),
    ), None


def distinct_order_limit(db):
    return QuerySpec(
        base_alias="T", base_table="t",
        projection=("T.k", "T.grp"),
        distinct=True,
        order_by=(OrderSpec("T.grp", descending=True), OrderSpec("T.k")),
        limit=4,
    ), None


#: Shape name -> setup that returns (spec, substitutions) to profile.
SHAPES = {
    f.__name__: f
    for f in (
        scan_filter_project,
        inl_join,
        hash_join_snapshot,
        hash_join_row_source,
        hash_join_rolled,
        prescanned_source,
        grouped_aggregate,
        scalar_aggregate,
        distinct_order_limit,
    )
}


def flatten(node) -> list:
    """``[kind, label, tally, rows_out, blocks]`` of every node, pre-order."""
    out = [[node.kind, node.label, dict(node.tally), node.rows_out, node.blocks]]
    for child in node.children:
        out.extend(flatten(child))
    return out


def run_shape(shape: str, block_size: int):
    """(database, profile, counter difference of the profiled query)."""
    db = make_db(block_size)
    spec, substitutions = SHAPES[shape](db)
    before = db.counter.snapshot()
    result = db.execute(spec, substitutions=substitutions, profile=True)
    return db, result.profile, db.counter.since(before)


def observed() -> dict:
    """What the pins hold: shape -> block size -> flattened nodes."""
    return {
        shape: {
            str(size): flatten(run_shape(shape, size)[1].root)
            for size in BLOCK_SIZES
        }
        for shape in SHAPES
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_node_matches_its_pin(pins, shape, block_size):
    _, profile, _ = run_shape(shape, block_size)
    assert flatten(profile.root) == pins[shape][str(block_size)]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_total_tally_is_the_query_counter_difference(shape, block_size):
    _, profile, delta = run_shape(shape, block_size)
    assert profile.total_tally() == delta


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_the_rolled_shape_probes_a_rolled_side(block_size):
    with obs.recording() as recorder:
        db, _, _ = run_shape("hash_join_rolled", block_size)
    derived = recorder.registry.snapshot()["engine.snapshot.derived_keys"]
    # The first run derives all five keys of ``d``; the profiled run
    # inherits four of them and derives only the updated key.
    assert derived["value"] == 5 + 1
    assert 2 in db.table("d").snapshot().keyed("k")


def test_pins_cover_every_shape_and_block_size(pins):
    assert sorted(pins) == sorted(SHAPES)
    assert all(sorted(by_size) == sorted(map(str, BLOCK_SIZES))
               for by_size in pins.values())
