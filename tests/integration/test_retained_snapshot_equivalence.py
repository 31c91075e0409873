"""Differential: retained snapshots change wall time and nothing else.

A table keeps the last :class:`~repro.engine.snapshot.Snapshot` it handed
out, hands it out again for the same LSN and rolls its keyed maps (what
index probes and hash-join builds read) forward through the ``ModLog`` for
a later one, deriving a touched bucket when a probe asks for it.  The simulated charge for a build is
made as if the table were scanned and hashed every time, so the cost
tables -- the experiment observable -- must not be able to tell.  These
tests run the paper's view under the paper's update mix twice on
identically seeded databases, once normally and once with every table's
retained snapshot cleared before each ``execute`` (which is the engine
before snapshots were retained), and require the same charges after
every flush, the same view, and the same per-operator profiles.

The normal leg must be *non-vacuous* (it really reuses and really rolls),
and for each reason a keyed map cannot roll, it starts empty instead.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.engine.database import Database
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.snapshot import Snapshot
from repro.engine.table import ModLog
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from repro.obs import attrib
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_paper_spec, make_tpcr_db

STEPS = 5
#: The paper's arrival mix: 80 PartSupp and 1 Supplier update per step.
PS_PER_STEP, S_PER_STEP = 80, 1

BLOCK_SIZES = (1, 64, 256)


def without_wall(node):
    """A profile dict with every ``wall_ms`` removed."""
    if isinstance(node, dict):
        return {
            k: without_wall(v) for k, v in node.items() if k != "wall_ms"
        }
    if isinstance(node, list):
        return [without_wall(v) for v in node]
    return node


def join_builds(node):
    """Every ``join-build`` node under a profile node, flattened."""
    found = [node] if node["op"] == "join-build" else []
    for child in node["children"]:
        found.extend(join_builds(child))
    return found


def run_trace(block_size, retain: bool):
    """The paper view through STEPS forced refreshes.

    Returns (charges after every flush, contents, recompute, profiles,
    metrics registry snapshot).
    """
    db = make_tpcr_db()
    db.block_size = block_size
    if not retain:
        execute = db.execute

        def execute_from_scratch(*args, **kwargs):
            for table in db.tables.values():
                table._retained = None
            return execute(*args, **kwargs)

        db.execute = execute_from_scratch
    view = MaterializedView("paper_view", db, make_paper_spec())
    ps = PartSuppCostUpdater(db.table("partsupp"), seed=11)
    su = SupplierNationUpdater(db.table("supplier"), seed=12)
    charges = []
    profiles = []
    previous = attrib.set_profile_sink(profiles.append)
    try:
        with obs.recording() as recorder:
            for _ in range(STEPS):
                ps.apply(PS_PER_STEP)
                su.apply(S_PER_STEP)
                for alias in view.spec.aliases:
                    view.deltas[alias].pull()
                    pending = view.deltas[alias].size
                    if pending:
                        apply_batch(view, alias, pending)
                        charges.append(db.counter.snapshot())
            contents = view.contents()
            recomputed = view.recompute()
    finally:
        attrib.set_profile_sink(previous)
    return charges, contents, recomputed, profiles, recorder.registry.snapshot()


class TestPaperViewEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_identical_with_and_without_retention(self, block_size):
        ref_charges, ref_contents, ref_recomputed, ref_profiles, ref_metrics = (
            run_trace(block_size, retain=False)
        )
        charges, contents, recomputed, profiles, metrics = run_trace(
            block_size, retain=True
        )
        assert len(charges) == 2 * STEPS  # a PS and an S flush per step
        assert charges == ref_charges
        assert contents == ref_contents == recomputed == ref_recomputed
        assert [without_wall(p) for p in profiles] == [
            without_wall(p) for p in ref_profiles
        ]
        # Non-vacuity: the normal leg reused and rolled, the reference
        # leg could do neither and derives every key it probes afresh at
        # every query.  The normal leg derives only what the log touched
        # or no query had probed yet: partsupp's bucket of the updated
        # supplier at each S-flush, and a few supplier and nation keys.
        assert metrics["engine.snapshot.reused"]["value"] > 0
        assert metrics["engine.snapshot.derived_keys"]["value"] == 11
        assert "engine.snapshot.reused" not in ref_metrics
        assert ref_metrics["engine.snapshot.derived_keys"]["value"] == 457
        for name in ("engine.join.hash.build_rows", "engine.scan.rows_out",
                     "engine.scan.scans", "engine.scan.pages"):
            assert metrics[name] == ref_metrics[name]

    def test_join_build_node_keeps_rows_and_tally(self):
        """The build is charged -- and profiled -- as the full scan and
        hash it stands for, whether or not the snapshot had the table."""
        __, __, __, profiles, __ = run_trace(64, retain=True)
        partsupp_rows = make_tpcr_db().table("partsupp").live_count
        builds = [
            node for p in profiles for node in join_builds(p["root"])
            if node["label"] == "Build(SeqScan(partsupp AS PS))"
        ]
        # Insert half and delete half of each Supplier flush.
        assert len(builds) == 2 * STEPS
        for node in builds:
            assert node["rows_out"] == partsupp_rows
            assert node["tally"] == {
                "page_reads": -(-partsupp_rows // 64),
                "tuple_cpu": partsupp_rows,
                "hash_builds": partsupp_rows,
            }


# ----------------------------------------------------------------------
# Fall-through: what cannot roll starts empty
# ----------------------------------------------------------------------

FACT_JOIN = QuerySpec(
    base_alias="D",
    base_table="dim",
    joins=(JoinSpec("F", "fact", "D.k", "k"),),
    aggregate=AggregateSpec(func="sum", value=col("F.v"), group_by=("D.k",)),
)


def fact_db(rows: int) -> Database:
    """``dim`` driving a hash join whose build side is un-indexed ``fact``."""
    db = Database()
    dim = db.create_table("dim", Schema.of(k=ColumnType.INT))
    fact = db.create_table(
        "fact", Schema.of(k=ColumnType.INT, v=ColumnType.INT)
    )
    fact.history = ModLog(chunk_size=4)
    for k in range(3):
        dim.insert((k,))
    for i in range(rows):
        fact.insert((i % 3, i))
    return db


def query_at(db: Database, lsn: int):
    """Run the join reading ``fact`` at ``lsn``; returns (rows, charges,
    keyed-map buckets derived while doing so)."""
    before = db.counter.snapshot()
    with obs.recording() as recorder:
        rows = db.execute(FACT_JOIN, snapshot_lsns={"F": lsn}).rows
    after = db.counter.snapshot()
    derived = recorder.registry.snapshot().get(
        "engine.snapshot.derived_keys", {"value": 0}
    )
    return rows, {f: after[f] - before[f] for f in after}, derived["value"]


def expect_plain_build(db: Database, lsn: int) -> None:
    """A query at ``lsn`` rolls nothing -- its map shares no bucket with
    the retained one and derives every key it holds -- and still answers,
    and charges, what a database that never retained anything does."""
    fact = db.table("fact")
    retained = fact._retained.keyed("k")
    rows, charges, derived = query_at(db, lsn)
    keyed = fact._retained.keyed("k")
    assert not set(map(id, keyed.values())) & set(map(id, retained.values()))
    assert derived == len(keyed) == 3
    direct = Snapshot(fact, lsn).keyed("k")
    assert keyed == {key: direct[key] for key in keyed}
    fact._retained = None
    ref_rows, ref_charges, __ = query_at(db, lsn)
    assert (rows, charges) == (ref_rows, ref_charges)


class TestFallThrough:
    def test_short_forward_window_rolls(self):
        """The control: everything the three cases below lack."""
        db = fact_db(rows=30)
        fact = db.table("fact")
        query_at(db, 30)
        for rid in range(4):
            fact.update_rid(rid, {"v": -1})
        rows, charges, derived = query_at(db, 34)
        assert derived == 3  # keys 0, 1 and 2 were touched and are probed
        fact._retained = None
        assert (rows, charges) == query_at(db, 34)[:2]

    def test_backward_lsn(self):
        db = fact_db(rows=30)
        query_at(db, 30)
        expect_plain_build(db, 20)

    def test_truncated_window(self):
        db = fact_db(rows=30)
        fact = db.table("fact")
        query_at(db, 30)
        for rid in range(8):
            fact.update_rid(rid, {"v": -1})
        fact.history.truncate()
        assert fact.history.truncated_lsn == 36  # above the retained LSN 30
        expect_plain_build(db, 38)

    def test_window_longer_than_the_table(self):
        db = fact_db(rows=3)
        fact = db.table("fact")
        query_at(db, 3)
        for i in range(5):
            fact.update_rid(fact.find_rids(lambda r: r[0] == 0)[0], {"v": -i})
        expect_plain_build(db, 8)
