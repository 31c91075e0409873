"""Batch delta propagation -- the maintenance "SQL statements" of the paper.

:func:`apply_batch` processes the ``k`` oldest pending modifications of one
base table into the view:

1. split the events into deleted and inserted base rows;
2. evaluate the view's join with the batch substituted for its base table
   (the view's ``delta_specs``: the delta drives the join so inner-table
   indexes can be used, and only the columns the fold reads are carried),
   reading every **other** base table at the LSN the view has
   already incorporated -- not its current state.  This snapshot discipline
   is what avoids the state bug [Colby et al. 1996] that the paper's
   footnote 1 references;
3. fold inserted-derived rows into the view, then remove deleted-derived
   rows (insert-before-delete keeps update chains within one batch from
   transiently underflowing multiplicities);
4. advance the delta table's ``applied_lsn``.

Every call reads its window through a
:class:`~repro.ivm.sharedscan.SharedScanRound`: the caller's, or a round
of one made for the call.  So there is one execution path and one price
for the read (the rule is in :mod:`repro.ivm.sharedscan`).

Cost: everything runs against the engine's shared cost counter; use
``database.counter.window()`` around a call to measure the batch's
simulated cost.  Called without a round, the window's read is charged
inside that cost window too, so the measured curve as a function of
``k`` is exactly the paper's ``f_i(k)``.
"""

from __future__ import annotations

from repro import obs
from repro.engine.errors import ExecutionError
from repro.ivm.sharedscan import Evaluation, SharedBatch, SharedScanRound
from repro.ivm.view import MaterializedView


def apply_batch(
    view: MaterializedView,
    alias: str,
    k: int,
    round_: SharedScanRound | None = None,
) -> None:
    """Propagate the ``k`` oldest pending modifications of ``alias``.

    The window is read through ``round_`` (a fresh round of one when not
    given): its deleted/inserted row split comes from the round's scan --
    pre-scanned by a coordinator, or read and charged here, inside
    whatever cost window is open -- and where another view of the round
    already ran the same delta-join over the same window, its result is
    folded and its charges charged again (``batch.evaluations``) instead
    of running it a second time.
    """
    if alias not in view.deltas:
        raise ExecutionError(
            f"view {view.name!r} has no base table aliased {alias!r}"
        )
    if k == 0:
        return
    delta = view.deltas[alias]
    if not 0 < k <= delta.size:
        raise ExecutionError(
            f"view {view.name!r}: asked to process {k} events from "
            f"{alias!r} but only {delta.size} pending"
        )
    if round_ is None:
        round_ = SharedScanRound(view.database)
    batch = round_.batch_for(delta, k)
    with obs.trace("ivm.apply_batch", alias=alias, k=k):
        _propagate(view, alias, batch)
    delta.advance(k)


def _propagate(view, alias: str, batch: SharedBatch) -> None:
    """Run the rebased delta-join over the window's split row batches and
    fold the results.

    Each batch flows through the rebased query as a whole -- the engine's
    blocked pipeline chunks it from there.
    """
    # Other base tables are read at the state the view has incorporated.
    snapshot_lsns = {
        other: d.applied_lsn
        for other, d in view.deltas.items()
        if other != alias
    }
    derived_inserts = derived_deletes = None
    if batch.inserted:
        derived_inserts = _derive(
            view, alias, batch.inserted, +1, snapshot_lsns, batch.evaluations
        )
    if batch.deleted:
        derived_deletes = _derive(
            view, alias, batch.deleted, -1, snapshot_lsns, batch.evaluations
        )

    if derived_inserts is not None:
        view.apply_delta(alias, derived_inserts, +1)
    if derived_deletes is not None:
        view.apply_delta(alias, derived_deletes, -1)


def _derive(
    view, alias: str, rows, sign: int, snapshot_lsns, evaluations
) -> Evaluation:
    """The view's delta-join with ``rows`` substituted for ``alias``,
    asked of the round's ``evaluations`` for this window by what
    determines it -- the sign (which half of the window ``rows`` is), the
    delta spec's structural key and the LSNs the other aliases are read
    at -- so it runs only if no view asked before.
    """
    key = (sign, view.delta_keys[alias], tuple(snapshot_lsns.items()))
    return evaluations.run(
        key, view.delta_specs[alias], snapshot_lsns, {alias: rows}
    )
