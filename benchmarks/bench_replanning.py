"""Extension bench: receding-horizon re-planning vs the ONLINE heuristic."""

from benchmarks import write_table
from repro.experiments.ablations import run_replanning_study


def bench_replanning():
    result = run_replanning_study()
    write_table("ablation_replanning", result.format())
    rows = {name: (o, r) for name, o, r, __ in result.rows()}
    # With exact rates (uniform stream) MPC re-planning is optimal.
    assert rows["uniform"][1] < 1.001
    # Both stay within a few percent of OPT everywhere.
    for online, receding in rows.values():
        assert online < 1.05
        assert receding < 1.05
