"""Differential tests: profiled execution == unprofiled execution.

Attribution (:mod:`repro.obs.attrib`) is observational by contract --
nodes copy charges the operators already made, never charging anything
themselves.  These tests enforce the contract the way the block
refactor is enforced: run the same workload twice on identical fresh
databases, once with ``profile=True`` (or a global sink installed) and
once without, and require byte-identical result rows **and**
byte-identical :class:`OperationCounter` cost tables at small and
default block sizes, including the TPC-R paper query.

Also here: the profile's summed tally must equal the counter's delta for
the query -- attribution is *complete*, not just harmless.
"""

from __future__ import annotations

import pytest

from repro.obs import attrib
from tests.conftest import make_paper_spec, make_tpcr_db
from tests.integration.test_block_equivalence import (
    SEEDS,
    build_db,
    hash_join_specs,
    query_specs,
)

#: The acceptance grid: small and default blocks.
BLOCK_SIZES = (64, 7)


def run_specs(specs, block_size, seed, profile):
    """Fresh DB, run every spec, return (rows, charges, profiles)."""
    profiles = []
    db = build_db(block_size, seed, index_dim=False)
    rows = []
    for spec in specs(seed):
        before = db.counter.snapshot()
        result = db.execute(spec, profile=profile)
        after = db.counter.snapshot()
        rows.append(result.rows)
        if profile:
            delta = {
                f: after[f] - before[f]
                for f in after
                if after[f] != before[f]
            }
            profiles.append((result.profile, delta))
    return rows, db.counter.snapshot(), profiles


class TestAnalyzeEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_cost_tables_identical_with_and_without_profiling(
        self, block_size
    ):
        for seed in SEEDS[:2]:
            for specs in (query_specs, hash_join_specs):
                ref_rows, ref_charges, __ = run_specs(
                    specs, block_size, seed, profile=False
                )
                rows, charges, profiles = run_specs(
                    specs, block_size, seed, profile=True
                )
                assert rows == ref_rows, (
                    f"rows diverge under profiling at block_size={block_size}"
                )
                assert charges == ref_charges, (
                    f"simulated charges diverge under profiling at "
                    f"block_size={block_size}"
                )
                # Completeness: every charge the query made is attributed
                # to some plan node -- the profile total IS the delta.
                for profile, delta in profiles:
                    assert profile is not None
                    assert profile.total_tally() == delta

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_sink_mode_is_charge_neutral(self, block_size):
        seed = SEEDS[0]
        ref_rows, ref_charges, __ = run_specs(
            query_specs, block_size, seed, profile=False
        )
        captured: list[dict] = []
        previous = attrib.set_profile_sink(captured.append)
        try:
            rows, charges, __ = run_specs(
                query_specs, block_size, seed, profile=None
            )
        finally:
            attrib.set_profile_sink(previous)
        assert rows == ref_rows
        assert charges == ref_charges
        assert len(captured) == len(query_specs(seed))


class TestPaperQueryProfile:
    """The acceptance scenario: a per-operator profile of the TPC-R
    join-aggregate query, with byte-identical cost tables between the
    profiled and unprofiled runs."""

    def test_paper_query_profiled_matches_unprofiled(self):
        spec = make_paper_spec()

        def run(profile):
            db = make_tpcr_db()
            result = db.execute(spec, profile=profile)
            return result, db.counter.snapshot()

        plain, plain_charges = run(False)
        profiled, profiled_charges = run(True)
        assert profiled.rows == plain.rows
        assert profiled_charges == plain_charges
        profile = profiled.profile
        assert profile is not None
        # The tree names the paper's physical plan: index-NL joins up the
        # dimension chain under a scalar MIN.
        text = attrib.render_profile(profile)
        assert "SeqScan(partsupp AS PS)" in text
        assert "IndexNestedLoopJoin" in text
        assert "Aggregate(MIN" in text
        assert profile.query == "partsupp ⋈ supplier ⋈ nation ⋈ region → MIN"

    def test_explain_analyze_does_not_disturb_later_queries(self):
        db = make_tpcr_db()
        reference = make_tpcr_db()
        spec = make_paper_spec()
        db.explain(spec, analyze=True)

        def delta(database):
            before = database.counter.snapshot()
            database.execute(spec)
            after = database.counter.snapshot()
            return {f: after[f] - before[f] for f in after}

        assert delta(db) == delta(reference)
