"""Tests for the shared experiment infrastructure and reporting helpers."""

from repro.core.costfuncs import LinearCost, TabulatedCost
from repro.experiments import common
from repro.experiments.reporting import format_table
from tests.conftest import TEST_SCALE


class TestBuildSetup:
    def test_physical_design(self):
        setup = common.build_setup(scale=TEST_SCALE)
        db = setup.database
        assert db.table("supplier").index_on("suppkey") is not None
        assert db.table("partsupp").index_on("suppkey") is None  # the knob
        assert setup.view.scalar() is not None

    def test_apply_arrivals(self):
        setup = common.build_setup(scale=TEST_SCALE)
        ps_lsn = setup.database.table("partsupp").current_lsn
        s_lsn = setup.database.table("supplier").current_lsn
        setup.apply_arrivals((3, 2))
        assert setup.database.table("partsupp").current_lsn == ps_lsn + 3
        assert setup.database.table("supplier").current_lsn == s_lsn + 2


class TestCalibratedCosts:
    def test_cached_and_asymmetric(self):
        a = common.calibrated_costs(TEST_SCALE)
        b = common.calibrated_costs(TEST_SCALE)
        assert a is b  # lru-cached
        cal_ps, cal_s = a
        assert cal_s.linear_fit.setup > 10 * max(cal_ps.linear_fit.setup, 1)

    def test_cost_function_forms(self):
        tab = common.cost_functions(TEST_SCALE)
        assert all(isinstance(f, TabulatedCost) for f in tab)
        calibrated = common.calibrated_costs(TEST_SCALE)
        assert all(isinstance(c.linear_fit, LinearCost) for c in calibrated)

    def test_small_batches_anchored(self):
        """The k=1 calibration anchor: f(1) must carry the real setup, not
        an interpolated fraction of it (planners exploit such fictions)."""
        __, f_s = common.cost_functions(TEST_SCALE)
        assert f_s(1) > 0.5 * f_s(4)

    def test_default_limit_headroom(self):
        costs = common.cost_functions(TEST_SCALE)
        limit = common.default_limit(costs)
        __, f_s = costs
        assert f_s(30) < limit < f_s(60)

    def test_make_problem_shapes(self):
        problem = common.make_problem(
            [(2, 1)] * 5, 100.0, common.cost_functions(TEST_SCALE)
        )
        assert problem.n == 2
        assert problem.horizon == 4


class TestReportingHelpers:
    def test_format_table_alignment(self):
        text = format_table(
            "Title", ["a", "long-header"], [(1, 2.5), (300, 4.0)]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "long-header" in lines[2]
        assert "2.50" in text  # float precision applied
        assert "300" in text

    def test_format_table_bool_rendering(self):
        text = format_table("T", ["x"], [(True,), (False,)])
        assert "yes" in text and "no" in text
