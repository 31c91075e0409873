"""Tests for cost-function calibration against the live engine."""

import pytest

from repro.ivm.calibration import measure_cost_function


class TestMeasureCostFunction:
    def test_produces_monotone_samples(self, paper_view, updaters):
        ps_updater, __ = updaters
        result = measure_cost_function(
            paper_view, "PS", (5, 20, 60), ps_updater
        )
        ks = [k for k, __ in result.samples]
        costs = [c for __, c in result.samples]
        assert ks == [5, 20, 60]
        assert costs == sorted(costs)
        assert all(c > 0 for c in costs)

    def test_asymmetry_between_tables(self, paper_view, updaters):
        """Supplier batches must carry a much larger setup than PartSupp
        (the paper's central observation)."""
        ps_updater, sup_updater = updaters
        cal_ps = measure_cost_function(
            paper_view, "PS", (5, 20, 60), ps_updater
        )
        cal_s = measure_cost_function(
            paper_view, "S", (5, 20, 60), sup_updater
        )
        assert cal_s.linear_fit.setup > 10 * max(cal_ps.linear_fit.setup, 1.0)

    def test_linear_fit_quality(self, paper_view, updaters):
        ps_updater, __ = updaters
        result = measure_cost_function(
            paper_view, "PS", (10, 30, 60, 120), ps_updater
        )
        assert result.max_relative_fit_error() < 0.25

    def test_tabulated_replays_measurements(self, paper_view, updaters):
        ps_updater, __ = updaters
        result = measure_cost_function(
            paper_view, "PS", (10, 40), ps_updater
        )
        for k, measured in result.samples:
            assert result.tabulated(k) == pytest.approx(measured)

    def test_view_remains_consistent_after_calibration(
        self, paper_view, updaters
    ):
        ps_updater, sup_updater = updaters
        measure_cost_function(paper_view, "PS", (5, 10), ps_updater)
        measure_cost_function(paper_view, "S", (2, 4), sup_updater)
        assert paper_view.contents() == paper_view.recompute()
        assert not any(paper_view.pending_sizes().values())

    def test_guards(self, paper_view, updaters):
        ps_updater, __ = updaters
        with pytest.raises(ValueError, match="no alias"):
            measure_cost_function(paper_view, "ZZ", (5, 10), ps_updater)
        with pytest.raises(ValueError, match="two non-zero"):
            measure_cost_function(paper_view, "PS", (0, 5), ps_updater)

    def test_mismatched_mutator_detected(self, paper_view, updaters):
        __, sup_updater = updaters
        # Mutator touches Supplier while we calibrate PS.
        with pytest.raises(RuntimeError, match="expected"):
            measure_cost_function(
                paper_view, "PS", (3, 6), sup_updater
            )


class TestOnePriceForTheRead:
    """The price rule (``repro.ivm.sharedscan``): calibration and a
    maintainer stepped alone read a window inside the view's flush
    window, so ``f_i(k)`` and the live flush price the same statement."""

    SIZES = (7, 30)

    def test_calibrated_sample_equals_a_standalone_refresh(self):
        from repro.core.costfuncs import LinearCost
        from repro.core.naive import NaivePolicy
        from repro.ivm.maintainer import ViewMaintainer
        from repro.ivm.view import MaterializedView
        from repro.tpcr.updates import PartSuppCostUpdater
        from tests.conftest import make_paper_spec, make_tpcr_db

        # Calibration, on one database.
        db = make_tpcr_db()
        view = MaterializedView("v", db, make_paper_spec())
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=5)
        marks = []

        def mutate(k):
            marks.append(db.counter.snapshot())  # the last sample ends
            updater.apply(k)
            marks.append(db.counter.snapshot())  # this sample begins

        result = measure_cost_function(view, "PS", self.SIZES, mutate)
        marks.append(db.counter.snapshot())
        calibrated = [
            {f: end[f] - start[f] for f in start if end[f] != start[f]}
            for start, end in zip(marks[1::2], marks[2::2])
        ]

        # A lone maintainer refreshing the same stream on a twin.
        twin = make_tpcr_db()
        maintainer = ViewMaintainer(
            MaterializedView("v", twin, make_paper_spec()),
            (LinearCost(slope=0.2, setup=1.0), LinearCost(slope=10.0)),
            limit=600.0,
            policy=NaivePolicy(),
            scheduled_aliases=("PS", "S"),
        )
        twin_updater = PartSuppCostUpdater(twin.table("partsupp"), seed=5)
        entries = []
        for k in self.SIZES:
            twin_updater.apply(k)
            entries.append(maintainer.refresh())

        assert [k for k, _ in result.samples] == list(self.SIZES)
        for (k, sample), charges, entry in zip(
            result.samples, calibrated, entries
        ):
            assert entry.action == (k, 0)
            assert entry.sim_ms == sample
            assert entry.charges == charges
        # The window's read is in both: two row images per update.
        assert [round(sample, 3) for _, sample in result.samples] == [
            2.188, 5.98
        ]
        assert [c["tuple_cpu"] for c in calibrated] == [56, 240]
