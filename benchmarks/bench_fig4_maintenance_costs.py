"""Figure 4: maintenance cost vs batch size for the 4-way MIN view."""

from benchmarks import write_table
from repro.experiments.fig4_maintenance_costs import run_fig4


def bench_fig4_maintenance_costs():
    result = run_fig4()
    write_table("fig4_maintenance_costs", result.format())
    # Paper: Supplier batches cost more than PartSupp batches throughout,
    # and both curves follow linear trends -- with "some irregularities"
    # (here: MIN-recomputation spikes), so small-batch relative error on
    # the cheap curve can be large while the trend still fits.
    assert all(cost_s > cost_ps for __, cost_ps, cost_s in result.rows())
    assert result.partsupp.max_relative_fit_error() < 1.2
    assert result.supplier.max_relative_fit_error() < 0.5
