"""Figure 1: batch cost functions of the two-way join R |x| S.

Regenerates the paper's motivating figure: the indexed side's delta cost
is linear through the origin, the unindexed side's is setup-dominated.
"""

from benchmarks import write_table
from repro.experiments.fig1_join_costs import run_fig1


def bench_fig1_join_costs():
    result = run_fig1()
    write_table("fig1_join_costs", result.format())
    # Paper shape: the expensive curve is setup-dominated.
    assert result.setup_ratio() > 5.0
    rows = result.rows()
    assert all(cost_r > cost_s for __, cost_r, cost_s in rows)
