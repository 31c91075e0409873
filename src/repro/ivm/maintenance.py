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

Cost: everything runs against the engine's shared cost counter; use
``database.counter.window()`` around a call to measure the batch's
simulated cost.  The measured curve as a function of ``k`` is exactly the
paper's ``f_i(k)``.
"""

from __future__ import annotations

from repro import obs
from repro.engine.errors import ExecutionError
from repro.ivm.sharedscan import Evaluation
from repro.ivm.view import MaterializedView


def apply_batch(view: MaterializedView, alias: str, k: int, batch=None) -> None:
    """Propagate the ``k`` oldest pending modifications of ``alias``.

    When ``batch`` (a :class:`~repro.ivm.sharedscan.SharedBatch`) is
    given, the deleted/inserted row split was already produced -- and its
    scan cost already charged -- by the round's shared table scan, so the
    per-view work here is just the delta-join and content fold; and where
    another view of the round already ran the same delta-join over the
    same window, its result is folded and its charges charged again
    (``batch.evaluations``) instead of running it a second time.
    """
    if alias not in view.deltas:
        raise ExecutionError(
            f"view {view.name!r} has no base table aliased {alias!r}"
        )
    if k == 0:
        return
    delta = view.deltas[alias]
    if batch is not None:
        if batch.events != k:
            raise ExecutionError(
                f"view {view.name!r}: shared batch covers {batch.events} "
                f"events but {k} were planned for {alias!r}"
            )
        with obs.trace("ivm.apply_batch", alias=alias, k=k):
            _propagate(
                view, alias, batch.deleted, batch.inserted, batch.evaluations
            )
    else:
        olds, news = delta.columns(k)
        if len(olds) < k:
            raise ExecutionError(
                f"view {view.name!r}: asked to process {k} events from "
                f"{alias!r} but only {len(olds)} pending"
            )
        with obs.trace("ivm.apply_batch", alias=alias, k=k):
            _apply_events(view, alias, olds, news)
    obs.counter("ivm.batches_applied")
    obs.counter("ivm.modifications_applied", k)
    delta.advance(k)


def _apply_events(view: MaterializedView, alias: str, olds, news) -> None:
    """Propagate one batch of delta events into the view.

    ``olds`` / ``news`` are the two columns of one contiguous window of
    the base table's shared :class:`~repro.engine.table.ModLog`; the
    images present in each are the deleted and the inserted row batch (an
    update contributes to both), and each batch flows through the rebased
    query as a whole -- the engine's blocked pipeline chunks it from there.
    """
    _propagate(
        view,
        alias,
        [row for row in olds if row is not None],
        [row for row in news if row is not None],
    )


def _propagate(view, alias: str, deleted, inserted, evaluations=None) -> None:
    """Run the rebased delta-join over split row batches and fold results."""
    # Other base tables are read at the state the view has incorporated.
    snapshot_lsns = {
        other: d.applied_lsn
        for other, d in view.deltas.items()
        if other != alias
    }
    derived_inserts = derived_deletes = None
    if inserted:
        derived_inserts = _derive(
            view, alias, inserted, +1, snapshot_lsns, evaluations
        )
    if deleted:
        derived_deletes = _derive(
            view, alias, deleted, -1, snapshot_lsns, evaluations
        )

    if derived_inserts is not None:
        view.apply_delta(alias, derived_inserts, +1)
    if derived_deletes is not None:
        view.apply_delta(alias, derived_deletes, -1)


def _derive(
    view, alias: str, rows, sign: int, snapshot_lsns, evaluations
) -> Evaluation:
    """The view's delta-join with ``rows`` substituted for ``alias``.

    With ``evaluations`` (the round's, for this window) the join is asked
    for by what determines it -- the sign (which half of the window
    ``rows`` is), the delta spec's structural key and the LSNs the other
    aliases are read at -- and runs only if no view asked before.
    """
    spec = view.delta_specs[alias]
    substitutions = {alias: rows}
    if evaluations is None:
        return Evaluation(
            view.database.execute(
                spec, snapshot_lsns=snapshot_lsns, substitutions=substitutions
            )
        )
    key = (sign, view.delta_keys[alias], tuple(snapshot_lsns.items()))
    return evaluations.run(key, spec, snapshot_lsns, substitutions)


def full_refresh(view: MaterializedView) -> None:
    """Process every pending modification (the forced refresh at ``T``).

    Base tables are handled one after another; each batch reads the others
    at their *current* ``applied_lsn``, which advances as earlier batches
    complete, so the sequential composition is consistent.
    """
    for alias in view.spec.aliases:
        pending = view.deltas[alias].size
        if pending:
            apply_batch(view, alias, pending)
