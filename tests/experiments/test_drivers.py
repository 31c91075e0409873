"""Smoke tests for every experiment driver, at reduced scale.

Each driver must run end to end and reproduce the paper's *qualitative*
findings; the full-size runs live in ``benchmarks/``.
"""

import pytest

from repro.experiments.ablations import (
    run_astar_heuristic_ablation,
    run_cost_family_study,
    run_estimator_ablation,
    run_plan_class_ablation,
)
from repro.experiments.bounds_study import run_bounds_study, tightness_instance
from repro.experiments.fig1_join_costs import run_fig1
from repro.experiments.fig4_maintenance_costs import run_fig4
from repro.experiments.fig5_validation import run_fig5
from repro.experiments.fig6_refresh_time import run_fig6
from repro.experiments.fig7_nonuniform import run_fig7
from repro.experiments.intro_example import run_intro_example
from tests.conftest import TEST_SCALE

SMALL_BATCHES = (5, 15, 40)


class TestFig1:
    def test_asymmetric_shapes(self):
        result = run_fig1(scale=TEST_SCALE, batches=SMALL_BATCHES)
        # c_dR: setup-dominated; c_dS: near-linear through origin.
        assert result.setup_ratio() > 5.0
        assert result.c_delta_r.linear_fit.setup > 10.0
        rows = result.rows()
        assert len(rows) == len(SMALL_BATCHES)
        # The expensive side costs more at every batch size.
        for __, cost_r, cost_s in rows:
            assert cost_r > cost_s
        assert "Figure 1" in result.format()


class TestIntroExample:
    def test_asymmetric_beats_symmetric(self):
        result = run_intro_example(scale=TEST_SCALE, horizon=120)
        assert result.analytic_factor > 1.3
        assert result.simulated_factor > 1.3
        # Simulation and analytics must roughly agree.
        assert result.simulated_naive == pytest.approx(
            result.analytic_symmetric, rel=0.25
        )
        assert "Intro example" in result.format()


class TestFig4:
    def test_partsupp_cheaper_than_supplier(self):
        result = run_fig4(scale=TEST_SCALE, batches=SMALL_BATCHES)
        for __, cost_ps, cost_s in result.rows():
            assert cost_s > cost_ps
        # Both curves follow linear trends (the paper's observation).
        assert result.partsupp.max_relative_fit_error() < 0.5
        assert result.supplier.max_relative_fit_error() < 0.5
        assert "Figure 4" in result.format()


class TestFig5:
    def test_simulation_validates(self):
        result = run_fig5(scale=TEST_SCALE, horizon=40)
        assert result.max_relative_error() < 0.25
        assert {r[0] for r in result.rows()} == {"NAIVE", "OPT_LGM", "ONLINE"}
        assert "Figure 5" in result.format()


class TestFig6:
    def test_ranking_matches_paper(self):
        result = run_fig6(scale=TEST_SCALE, refresh_times=(60, 120))
        for naive, opt, adapt, online in zip(
            result.naive, result.opt_lgm, result.adapt, result.online
        ):
            assert naive > 1.1 * opt  # NAIVE clearly outperformed
            assert adapt <= naive
            assert online <= naive
            assert opt <= adapt + 1e-6
            assert opt <= online + 1e-6
        # ADAPT and ONLINE track OPT closely.
        assert result.worst_ratio_vs_opt("adapt") < 1.15
        assert result.worst_ratio_vs_opt("online") < 1.15
        assert "Figure 6" in result.format()

    def test_cost_grows_with_refresh_time(self):
        result = run_fig6(scale=TEST_SCALE, refresh_times=(60, 120))
        assert result.opt_lgm[1] > result.opt_lgm[0]


class TestFig7:
    def test_naive_loses_on_all_streams(self):
        result = run_fig7(scale=TEST_SCALE, horizon=120, seed=7)
        for naive, opt in zip(result.naive, result.opt_lgm):
            assert naive > opt
        for online, opt in zip(result.online, result.opt_lgm):
            assert online < 1.3 * opt
        assert result.classes == ("SS", "SU", "FS", "FU")
        assert "Figure 7" in result.format()


class TestBoundsStudy:
    def test_theorems_hold(self):
        result = run_bounds_study(linear_trials=3, subadditive_trials=2)
        assert result.max_ratio("linear") == pytest.approx(1.0)
        assert result.max_ratio("step (tightness)") > 1.4
        for row in result.rows_data:
            assert row.ratio <= 2.0 + 1e-9
            assert row.ratio >= 1.0 - 1e-9
        assert "Bounds study" in result.format()

    def test_tightness_instance_shape(self):
        prob = tightness_instance(eps=0.5, periods=2)
        assert prob.horizon == 3
        assert prob.arrivals[0] == (5,)


class TestAblations:
    def test_astar_heuristic(self):
        result = run_astar_heuristic_ablation(
            horizons=(40, 80), scale=TEST_SCALE
        )
        assert result.costs_equal
        for astar, dijkstra in zip(
            result.astar_expanded, result.dijkstra_expanded
        ):
            assert astar <= dijkstra
        assert "ablation" in result.format()

    def test_plan_classes_ordered(self):
        result = run_plan_class_ablation(horizon=80, scale=TEST_SCALE)
        assert result.eager > result.naive > result.opt_lgm
        assert "Plan-class" in result.format()

    def test_estimators(self):
        result = run_estimator_ablation(horizon=100, scale=TEST_SCALE)
        assert result.estimator_names == ("ewma", "window", "oracle")
        for row in result.ratios:
            for ratio in row:
                assert 0.9 < ratio < 2.0
        assert "TimeToFull" in result.format()

    def test_cost_families(self):
        result = run_cost_family_study(horizon=100)
        rows = {name: ratio for name, __, __, ratio in result.rows()}
        # Bigger setup => bigger asymmetric gain.
        assert rows["linear b=120"] > rows["linear b=40"]
        for ratio in rows.values():
            assert ratio >= 1.0 - 1e-9
        assert "cost families" in result.format()
