"""Figure 6: total cost vs refresh time for NAIVE / OPT_LGM / ADAPT /
ONLINE (the paper's headline comparison)."""

from benchmarks import write_table
from repro.experiments.fig6_refresh_time import run_fig6


def bench_fig6_refresh_time():
    result = run_fig6()
    write_table("fig6_refresh_time", result.format())
    # Paper shape: NAIVE clearly outperformed everywhere; ADAPT and ONLINE
    # track OPT_LGM closely despite using less advance knowledge.
    assert result.worst_ratio_vs_opt("naive") > 1.2
    assert result.worst_ratio_vs_opt("adapt") < 1.1
    assert result.worst_ratio_vs_opt("online") < 1.1
