"""Ablation benches for the design choices DESIGN.md calls out."""

from benchmarks import write_table
from repro.experiments.ablations import (
    run_astar_heuristic_ablation,
    run_cost_family_study,
    run_estimator_ablation,
    run_plan_class_ablation,
)


def bench_astar_heuristic():
    result = run_astar_heuristic_ablation()
    write_table("ablation_astar_heuristic", result.format())
    assert result.costs_equal
    # The heuristic must help, and increasingly so with horizon length.
    ratios = [
        d / a for a, d in zip(result.astar_expanded, result.dijkstra_expanded)
    ]
    assert all(r >= 1.0 for r in ratios)
    assert ratios[-1] > 2.0


def bench_plan_class():
    result = run_plan_class_ablation()
    write_table("ablation_plan_class", result.format())
    # Each LGM ingredient buys cost: EAGER > NAIVE > OPT_LGM.
    assert result.eager > result.naive > result.opt_lgm


def bench_estimators():
    result = run_estimator_ablation()
    write_table("ablation_estimators", result.format())
    for row in result.ratios:
        for ratio in row:
            assert ratio < 1.5


def bench_cost_families():
    result = run_cost_family_study()
    write_table("ablation_cost_families", result.format())
    rows = {name: ratio for name, __, __, ratio in result.rows()}
    assert rows["linear b=120"] > rows["linear b=40"]
