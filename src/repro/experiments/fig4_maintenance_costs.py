"""Figure 4: maintenance cost vs batch size for the four-way MIN view.

The paper measures, on the TPC-R view

    SELECT MIN(PS.supplycost)
    FROM PartSupp PS, Supplier S, Nation N, Region R
    WHERE ... AND R.name = 'MIDDLE EAST'

the cost of maintaining the view given a batch of k updates to PartSupp
(random ``supplycost`` changes) and to Supplier (random ``nationkey``
changes).  Its observations, which this driver reproduces:

* both curves are approximately subadditive and follow linear trends;
* PartSupp updates are cheap and stay stable (small tables are joined via
  indexes; a random supplycost update rarely disturbs the MIN);
* Supplier updates are substantially more expensive because the join
  partner PartSupp is much larger (here: an un-indexed scan per batch).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common
from repro.experiments.reporting import format_table
from repro.ivm.calibration import CalibrationResult, measure_cost_function

DEFAULT_BATCHES: tuple[int, ...] = (10, 25, 50, 100, 200, 400, 700, 1000)


@dataclass
class Fig4Result:
    """Measured maintenance cost curves for the MIN view."""

    partsupp: CalibrationResult
    supplier: CalibrationResult
    min_recomputations: int

    def rows(self) -> list[tuple[int, float, float]]:
        """``(batch_size, partsupp_ms, supplier_ms)`` series."""
        by_k_s = dict(self.supplier.samples)
        return [
            (k, cost_ps, by_k_s[k])
            for k, cost_ps in self.partsupp.samples
            if k in by_k_s
        ]

    def format(self) -> str:
        table = format_table(
            "Figure 4: maintenance cost vs batch size "
            "(4-way MIN view, TPC-R)",
            ["batch size k", "PartSupp batch ms", "Supplier batch ms"],
            self.rows(),
        )
        fits = format_table(
            "Linear fits f(k) = a*k + b (paper: 'both follow linear trends')",
            ["delta table", "slope a", "setup b", "max rel fit err"],
            [
                (
                    "PartSupp",
                    self.partsupp.linear_fit.slope,
                    self.partsupp.linear_fit.setup,
                    self.partsupp.max_relative_fit_error(),
                ),
                (
                    "Supplier",
                    self.supplier.linear_fit.slope,
                    self.supplier.linear_fit.setup,
                    self.supplier.max_relative_fit_error(),
                ),
            ],
            precision=3,
        )
        note = (
            f"MIN recomputations triggered during calibration: "
            f"{self.min_recomputations} (the paper's 'MIN is not "
            f"incrementally maintainable' irregularity source)"
        )
        return f"{table}\n\n{fits}\n\n{note}"


def run_fig4(
    scale: float = common.DEFAULT_SCALE,
    batches: tuple[int, ...] = DEFAULT_BATCHES,
) -> Fig4Result:
    """Measure both maintenance cost curves of the paper's MIN view."""
    setup = common.build_setup(scale=scale, update_seed=404)
    cal_ps = measure_cost_function(
        setup.view, "PS", batches, setup.ps_updater
    )
    cal_s = measure_cost_function(
        setup.view, "S", batches, setup.supplier_updater
    )
    # Counted over the view fold's lifetime (materialization included),
    # not over the groups alive at the end.
    return Fig4Result(
        partsupp=cal_ps,
        supplier=cal_s,
        min_recomputations=setup.view.state.data.recomputations,
    )
