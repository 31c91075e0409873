"""Figure 5: validating simulated plan costs against live execution."""

from benchmarks import write_table
from repro.experiments.fig5_validation import run_fig5


def bench_fig5_validation():
    result = run_fig5()
    write_table("fig5_validation", result.format())
    # Paper: "negligible difference between simulated and actual costs".
    assert result.max_relative_error() < 0.15
