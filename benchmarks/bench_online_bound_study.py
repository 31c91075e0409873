"""Future-work bench: empirical competitive ratio of the ONLINE heuristic."""

from benchmarks import write_table
from repro.experiments.online_bound_study import run_online_bound_study


def bench_online_bound_study():
    result = run_online_bound_study()
    write_table("online_bound_study", result.format())
    # Empirically bounded well inside the factor-2 LGM envelope on every
    # family we sample, but demonstrably not ~1.0 in general.
    assert result.worst_ratio < 2.0
    for __, online_mean, __, __, __ in result.rows():
        assert online_mean < 1.5
