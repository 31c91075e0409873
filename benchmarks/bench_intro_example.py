"""Section 1's motivating numbers: symmetric vs asymmetric cost per
modification (paper: 0.97 ms vs 0.42 ms, a ~2.3x factor)."""

from benchmarks import write_table
from repro.experiments.intro_example import run_intro_example


def bench_intro_example():
    result = run_intro_example()
    write_table("intro_example", result.format())
    # The reproduced quantity is the improvement factor's order: >= ~1.5x.
    assert result.analytic_factor > 1.5
    assert result.simulated_factor > 1.5
