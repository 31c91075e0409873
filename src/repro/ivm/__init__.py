"""Incremental view maintenance on top of the relational engine.

This subpackage is the "live system" half of the paper's methodology:

* :mod:`repro.ivm.delta` -- per-(view, base-table) delta tables: FIFO
  windows over a base table's modification history, with the LSN
  bookkeeping that defines which base-table state the view has
  incorporated;
* :mod:`repro.ivm.view` -- materialized SPJ and aggregate views with
  multiset / aggregate-state contents;
* :mod:`repro.ivm.maintenance` -- batch delta propagation: joins a batch of
  modifications against snapshots of the other base tables at exactly the
  view-incorporated state (avoiding the state bug), and folds the result
  into the view;
* :mod:`repro.ivm.maintainer` -- the runtime enforcing the response-time
  constraint with a pluggable scheduling policy (NAIVE / ADAPT / ONLINE or
  a precomputed plan), measuring *actual* engine cost per action;
* :mod:`repro.ivm.calibration` -- measures the batch cost functions
  ``f_i(k)`` from the live engine (the reproduction of Figures 1 and 4)
  and fits the analytic forms the planners consume.
"""

from repro.ivm.delta import DeltaTable
from repro.ivm.view import MaterializedView
from repro.ivm.maintenance import apply_batch
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.calibration import CalibrationResult, measure_cost_function

__all__ = [
    "CalibrationResult",
    "DeltaTable",
    "MaintenanceCoordinator",
    "MaterializedView",
    "ViewConfig",
    "ViewMaintainer",
    "apply_batch",
    "measure_cost_function",
]
