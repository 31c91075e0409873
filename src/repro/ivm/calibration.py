"""Measuring batch cost functions from the live engine.

The paper obtains its cost functions empirically: run the maintenance SQL
for batches of increasing size and record the time (Figures 1 and 4), then
feed the measured curves to the planners.  :func:`measure_cost_function`
is that procedure against our engine:

for each batch size ``k`` in the sweep:
    1. apply ``k`` modifications to the base table (caller-provided
       mutator, e.g. random ``supplycost`` updates);
    2. pull them into the view's delta table;
    3. process them as one batch inside a cost window (a round of one,
       so the window's read is charged inside it, as in a maintainer's
       live flush -- :mod:`repro.ivm.sharedscan` has the price rule);
    4. record ``(k, simulated_ms)``.

The result packages the raw samples, a
:class:`~repro.core.costfuncs.TabulatedCost` replaying them exactly, and a
:class:`~repro.core.costfuncs.LinearCost` least-squares fit (the paper
observes its curves "follow linear trends"; ours do too, by construction
of the physical operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.core.costfuncs import LinearCost, TabulatedCost, fit_linear
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView


@dataclass
class CalibrationResult:
    """Measured cost curve for one (view, base table) pair."""

    alias: str
    samples: tuple[tuple[int, float], ...]
    tabulated: TabulatedCost
    linear_fit: LinearCost

    def max_relative_fit_error(self) -> float:
        """Largest relative deviation of the linear fit from the samples.

        A diagnostics number: small values justify handing the planners the
        linear model (and hence invoking Theorem 2's optimality).
        """
        worst = 0.0
        for k, measured in self.samples:
            if measured <= 0:
                continue
            predicted = self.linear_fit(k)
            worst = max(worst, abs(predicted - measured) / measured)
        return worst


def measure_cost_function(
    view: MaterializedView,
    alias: str,
    batch_sizes: Sequence[int],
    mutate: Callable[[int], None],
) -> CalibrationResult:
    """Measure ``f_alias(k)`` once for each ``k`` in ``batch_sizes``.

    Parameters
    ----------
    view:
        The materialized view to maintain (its contents evolve during
        calibration; use a scratch copy of the database if that matters).
    alias:
        Which base table's modifications to measure.
    batch_sizes:
        The sweep, e.g. ``range(50, 1001, 50)``.  Zero entries are skipped
        (``f(0) = 0`` by definition).
    mutate:
        ``mutate(k)`` must apply exactly ``k`` modifications to the
        underlying base table (e.g. random updates from
        :mod:`repro.tpcr.updates`).
    """
    if alias not in view.deltas:
        raise ValueError(f"view has no alias {alias!r}")
    counter = view.database.counter
    samples: list[tuple[int, float]] = []
    with obs.trace("ivm.calibrate", alias=alias) as span:
        for k in batch_sizes:
            if k <= 0:
                continue
            mutate(k)
            pulled = view.deltas[alias].pull()
            if pulled != k:
                raise RuntimeError(
                    f"mutator applied {pulled} modifications, expected "
                    f"{k} (did it touch another table?)"
                )
            with counter.window() as window:
                apply_batch(view, alias, k)
            samples.append((k, window.elapsed_ms))
            obs.counter("ivm.calibration_samples")
        span.set(samples=len(samples))
    if len(samples) < 2:
        raise ValueError("need at least two non-zero batch sizes to calibrate")
    return CalibrationResult(
        alias=alias,
        samples=tuple(samples),
        tabulated=TabulatedCost(samples),
        linear_fit=fit_linear(samples),
    )
