"""Extension bench: n = 3 asymmetric scheduling on the live TPC-R view."""

from benchmarks import write_table
from repro.experiments.three_way import run_three_way


def bench_three_way():
    result = run_three_way()
    write_table("three_way", result.format())
    # The asymmetric advantage persists at n = 3.
    assert result.naive_cost > 1.4 * result.opt_cost
    # Flush frequency tracks the cost hierarchy: cheap stream flushed
    # most, the most expensive one least.
    ps_flushes, s_flushes, n_flushes = result.opt_action_counts
    assert ps_flushes > s_flushes >= n_flushes
    # ONLINE stays well inside the LGM factor-2 envelope.
    assert result.online_cost < 1.5 * result.opt_cost
