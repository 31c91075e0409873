"""Future-work bench: operator-level asymmetric batching (Section 7)."""

from benchmarks import write_table
from repro.experiments.operator_asymmetry import run_operator_asymmetry


def bench_operator_asymmetry():
    result = run_operator_asymmetry()
    write_table("operator_asymmetry", result.format())
    # Batching in front of the setup-heavy operator must beat both
    # whole-pipeline batching and eager propagation through it.
    assert result.best_cut >= 1
    assert result.naive_cost > 1.2 * result.best_cost
    deep_costs = [cost for cut, cost in result.cut_costs if cut >= 2]
    assert all(cost > result.naive_cost for cost in deep_costs)
