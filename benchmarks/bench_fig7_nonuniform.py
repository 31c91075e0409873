"""Figure 7: the four non-uniform arrival streams (SS/SU/FS/FU)."""

from benchmarks import write_table
from repro.experiments.fig7_nonuniform import run_fig7


def bench_fig7_nonuniform():
    result = run_fig7()
    write_table("fig7_nonuniform", result.format())
    # Paper shape: NAIVE loses on all four streams; ONLINE stays within a
    # modest factor of OPT_LGM.
    for naive, opt in zip(result.naive, result.opt_lgm):
        assert naive > 1.1 * opt
    for cls in result.classes:
        assert result.online_gap(cls) < 1.2
