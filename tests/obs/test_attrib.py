"""Tests for hierarchical cost attribution (``repro.obs.attrib``).

Covers the profile data model, the EXPLAIN ANALYZE renderer (golden
output), plain EXPLAIN against ANALYZE for every pinned plan shape, the
global profile sink, cross-profile aggregation for the
benchmark dashboard, and the step tags of profiles emitted while a
maintainer flushes.  Per-node pins of each plan shape live in
``test_profile_pins.py``; the charge-neutrality differential tests (profiled run == unprofiled run,
byte for byte) live in ``tests/integration/test_attrib_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine.costmodel import CostModel, OperationCounter
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.multiview import MaintenanceCoordinator
from repro.obs import attrib, events
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db
from tests.ivm.test_sharedscan import add_naive
from tests.obs import test_profile_pins as pins

#: Round weights so golden sim_ms values are exact decimals.
FLAT_MODEL = CostModel(
    page_read=1.0,
    tuple_cpu=0.001,
    compare=0.001,
    index_probe=0.01,
    hash_build=0.01,
    hash_probe=0.01,
    row_write=0.01,
    index_maintain=0.01,
    agg_update=0.01,
    sort_item=0.01,
    startup=0.5,
)


def make_db(block_size=64) -> Database:
    db = Database(block_size=block_size)
    t = db.create_table(
        "t", Schema.of(k=ColumnType.INT, grp=ColumnType.INT, v=ColumnType.FLOAT)
    )
    d = db.create_table("d", Schema.of(k=ColumnType.INT, w=ColumnType.FLOAT))
    for i in range(40):
        t.insert((i % 5, i % 3, float(i)))
    for k in range(5):
        d.insert((k, k * 10.0))
    return db


def join_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="T",
        base_table="t",
        joins=(JoinSpec("D", "d", "T.k", "k"),),
        filters=(col("T.grp") != lit(1),),
        aggregate=AggregateSpec(func="min", value=col("T.v"), group_by=("D.w",)),
    )


class TestProfileNode:
    def test_add_tally_skips_zeros(self):
        counts = dict.fromkeys(OperationCounter._FIELDS, 0)
        counts["compares"] = 4
        assert attrib._tally(counts.values()) == {"compares": 4}

    def test_total_tally_sums_descendants(self):
        root = attrib.ProfileNode("query", "q")
        a = root.child("scan", "s")
        b = a.child("join-build", "b")
        root.tally = {"startups": 1}
        a.tally = {"tuple_cpu": 7}
        b.tally = {"hash_builds": 3, "tuple_cpu": 2}
        assert root.total_tally() == {
            "startups": 1,
            "tuple_cpu": 9,
            "hash_builds": 3,
        }

    def test_sim_ms_uses_model_weights(self):
        node = attrib.ProfileNode("scan", "s")
        node.tally = {"page_reads": 3, "tuple_cpu": 100}
        assert node.sim_ms(FLAT_MODEL) == pytest.approx(3.0 + 0.1)

    def test_to_dict_shape(self):
        node = attrib.ProfileNode("scan", "s")
        node.tally = {"tuple_cpu": 4}
        node.rows_out = 4
        child = node.child("join-build", "b")
        child.tally = {"hash_builds": 2}
        out = node.to_dict(FLAT_MODEL)
        assert out["op"] == "scan"
        assert out["sim_ms"] == pytest.approx(0.004)
        assert out["children"][0]["tally"] == {"hash_builds": 2}


class TestQueryProfile:
    def test_to_dict_carries_view_and_round(self):
        profile = attrib.QueryProfile(FLAT_MODEL, "q", view="v1", round=7)
        profile.finish(rows_out=3, wall_ms=1.25)
        out = profile.to_dict()
        assert out["view"] == "v1"
        assert out["round"] == 7
        assert out["rows"] == 3
        assert out["wall_ms"] == 1.25


class TestCaptureContext:
    def test_maintenance_context(self):
        """A query profiled inside a step carries that step's view and
        round; outside any step, neither."""
        db = make_db()
        with events.step("v", 4):
            inside = db.execute(join_spec(), profile=True).profile
            with events.step("w", 5):
                nested = db.execute(join_spec(), profile=True).profile
        outside = db.execute(join_spec(), profile=True).profile
        assert (inside.view, inside.round) == ("v", 4)
        assert (nested.view, nested.round) == ("w", 5)
        assert (outside.view, outside.round) == (None, None)


class TestProfileSink:
    def test_sink_receives_every_query_and_restores(self):
        db = make_db()
        profiles: list[dict] = []
        sink = profiles.append
        previous = attrib.set_profile_sink(sink)
        try:
            assert events.wanted("profile")
            db.execute(join_spec())
            db.execute(QuerySpec(base_alias="T", base_table="t"))
        finally:
            assert attrib.set_profile_sink(previous) is sink
        assert not events.wanted("profile")
        assert len(profiles) == 2
        assert profiles[0]["query"] == "t ⋈ d → MIN"
        assert profiles[0]["rows"] == len(db.execute(join_spec()).rows)
        # The sink saw tallies identical to what the counter charged.
        assert sum(profiles[0]["tally"].values()) > 0


class TestProfiledExecution:
    def test_profile_total_equals_counter_delta(self):
        db = make_db()
        before = db.counter.snapshot()
        result = db.execute(join_spec(), profile=True)
        after = db.counter.snapshot()
        delta = {f: after[f] - before[f] for f in after if after[f] != before[f]}
        assert result.profile is not None
        assert result.profile.total_tally() == delta

    def test_unprofiled_result_has_no_profile(self):
        db = make_db()
        result = db.execute(join_spec())
        assert result.profile is None

    def test_plan_nodes_cover_the_operators(self):
        db = make_db()
        result = db.execute(join_spec(), profile=True)
        kinds = set()

        def visit(node):
            kinds.add(node.kind)
            for child in node.children:
                visit(child)

        visit(result.profile.root)
        assert {"query", "scan", "filter", "join-probe", "join-build",
                "aggregate"} <= kinds

    def test_explain_analyze_renders_the_tree(self):
        db = make_db()
        text = db.explain(join_spec(), analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "SeqScan(t AS T)" in text
        assert "HashJoin(probe)" in text
        assert "Aggregate(MIN" in text
        assert text.splitlines()[-1].startswith("total: sim=")


def node_labels(text: str, analyze: bool) -> list[str]:
    """Each node's label in a rendered tree, top down: its line without
    connectors, up to the actuals (ANALYZE) or the root's finishing steps
    (plain)."""
    lines = text.splitlines()[1:-1] if analyze else text.splitlines()[1:]
    return [line.lstrip("│├└─ ").split("  ")[0] for line in lines]


class TestPlainExplain:
    @pytest.mark.parametrize("shape", sorted(pins.SHAPES))
    def test_is_the_analyzed_tree_without_actuals_and_charges_nothing(
        self, shape
    ):
        db = pins.make_db(64)
        spec, substitutions = pins.SHAPES[shape](db)
        before = db.counter.snapshot()
        plain = db.explain(spec, substitutions=substitutions)
        assert db.counter.snapshot() == before
        analyzed = db.explain(spec, substitutions=substitutions, analyze=True)
        assert node_labels(plain, False) == node_labels(analyzed, True)
        assert "rows=" not in plain and "sim=" not in plain

    def test_leaves_every_retained_snapshot_as_it_found_it(self):
        """EXPLAIN builds the tree on each read table's snapshot, but a
        later read reuses what the last execution retained, not what
        EXPLAIN looked at."""
        db = pins.make_db(64)
        spec, _ = pins.hash_join_rolled(db)  # executed, then d updated
        held = {name: table._retained for name, table in db.tables.items()}
        db.explain(spec)
        assert {
            name: table._retained for name, table in db.tables.items()
        } == held

    def test_the_root_shows_what_runs_on_the_pulled_rows(self):
        db = pins.make_db(64)
        spec, _ = pins.distinct_order_limit(db)
        assert db.explain(spec).splitlines()[:2] == [
            "EXPLAIN", "t  Distinct Sort(T.grp DESC, T.k ASC) Limit(4)",
        ]


class TestGoldenRenderer:
    def test_render_profile_golden(self):
        """Exact rendered output for a hand-built tree with fixed walls."""
        profile = attrib.QueryProfile(FLAT_MODEL, "t ⋈ d → MIN", view="v", round=3)
        root = profile.root
        root.tally = {"startups": 1}
        agg = root.child("aggregate", "Aggregate(MIN(T.v))")
        agg.tally = {"agg_updates": 10}
        agg.rows_out, agg.blocks, agg.wall_ms = 2, 1, 0.5
        probe = agg.child("join-probe", "HashJoin(probe)")
        probe.tally = {"hash_probes": 40}
        probe.rows_out, probe.blocks, probe.wall_ms = 40, 2, 1.25
        build = probe.child("join-build", "Build(SeqScan(d AS D))")
        build.tally = {"hash_builds": 5, "page_reads": 1}
        build.rows_out, build.wall_ms = 5, 0.25
        profile.finish(rows_out=2, wall_ms=2.0)
        expected = "\n".join(
            [
                "EXPLAIN ANALYZE  view=v round=3",
                "t ⋈ d → MIN  rows=2 wall=2.00ms sim=0.500ms [startups=1]",
                "└─ Aggregate(MIN(T.v))  rows=2 blocks=1 wall=0.50ms"
                " sim=0.100ms [agg_updates=10]",
                "   └─ HashJoin(probe)  rows=40 blocks=2 wall=1.25ms"
                " sim=0.400ms [hash_probes=40]",
                "      └─ Build(SeqScan(d AS D))  rows=5 wall=0.25ms"
                " sim=1.050ms [hash_builds=5 page_reads=1]",
                "total: sim=2.050ms wall=2.00ms rows=2",
            ]
        )
        assert attrib.render_profile(profile) == expected


class TestAggregateProfiles:
    def test_folds_operator_kinds(self):
        db = make_db()
        dicts = []
        previous = attrib.set_profile_sink(dicts.append)
        try:
            db.execute(join_spec())
            db.execute(join_spec())
        finally:
            attrib.set_profile_sink(previous)
        agg = attrib.aggregate_profiles(dicts)
        assert agg["queries"] == 2
        assert agg["sim_ms"] > 0
        assert agg["operators"]["scan"]["nodes"] == 2
        assert agg["operators"]["join-build"]["sim_ms"] > 0
        for entry in agg["operators"].values():
            assert set(entry) == {"nodes", "rows_out", "sim_ms", "wall_ms"}

    def test_empty_input(self):
        assert attrib.aggregate_profiles([]) == {
            "queries": 0,
            "sim_ms": 0.0,
            "operators": {},
        }



class TestFlushProfiles:
    """Profiles of the queries a view's flush runs carry the view and the
    round, and account for that round's ledger entry: what they tally
    plus the charges replayed to the view -- of a shared evaluation, an
    adopted fold or a whole view-round its state-mate ran -- is exactly
    the entry's ``charges``."""

    @staticmethod
    def spj_spec() -> QuerySpec:
        # A projection view folds without charging, so each round's
        # charges are its delta queries' (run or replayed) and nothing else.
        return QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            joins=(JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),),
            projection=("PS.partkey", "PS.supplycost", "S.nationkey"),
        )

    def test_profiles_and_replays_add_up_to_each_entry(self, monkeypatch):
        db = make_tpcr_db()
        coordinator = MaintenanceCoordinator(db)
        for name in ("first", "second"):  # spec-equal: the second replays
            add_naive(coordinator, name, self.spj_spec())
        replayed: dict[tuple, Counter] = {}
        replay = OperationCounter.replay

        def recording_replay(self, charges):
            if charges:
                view, t, _ = events.current_step()
                replayed.setdefault((view, t), Counter()).update(dict(charges))
            replay(self, charges)

        monkeypatch.setattr(OperationCounter, "replay", recording_replay)
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=17)
        profiles: list[dict] = []
        previous = attrib.set_profile_sink(profiles.append)
        try:
            for t in range(3):
                updater.apply(5)
                coordinator.step(t)
        finally:
            attrib.set_profile_sink(previous)

        tallied: dict[tuple, Counter] = {}
        for profile in profiles:
            key = (profile["view"], profile["round"])
            tallied.setdefault(key, Counter()).update(profile["tally"])
        assert set(tallied) == {("first", t) for t in range(3)}
        assert set(replayed) == {("second", t) for t in range(3)}
        for name, ledger in coordinator.ledgers().items():
            for entry in ledger.entries:
                key = (name, entry.t)
                attributed = tallied.get(key, Counter()) + replayed.get(
                    key, Counter()
                )
                assert entry.charges == dict(attributed) != {}
