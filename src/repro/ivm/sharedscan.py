"""Shared delta scans and shared delta evaluation: per round, one
blocked ModLog pass per table and one delta query per distinct asker.

A fleet of views over the same base table all window the same shared
:class:`~repro.engine.table.ModLog`; maintaining them view-at-a-time
re-reads (and re-charges) the same delta events once per view.  This
module is the table-at-a-time alternative the multi-view coordinator
uses: collect every view's requested delta window per table, merge the
overlapping windows into covering intervals, scan and split each
interval into deleted/inserted row batches **once** -- charging the
scan's ``tuple_cpu`` a single time, at the coordinator -- then hand each
view its slice wrapped in :class:`~repro.engine.operators.PrescannedRows`
so the per-view delta-joins skip the source-scan charge the shared scan
prepaid.

The scan also owns **no-op fingerprinting**: for a view whose
:meth:`~repro.ivm.view.MaterializedView.referenced_columns` over an
alias is known, a window consisting solely of update events whose old
and new rows agree on every referenced column provably leaves the view
unchanged (the derived insert and delete batches are identical multisets
over the columns the view consumes, so they cancel).  Fingerprints are
computed once per distinct ``(window, column signature)`` -- charged as
one ``compares`` per event at that point -- and shared across every view
with the same signature, so dimension churn does not cascade into
thousands of identical checks.

And it owns the round's **delta evaluations**.  Every view handed a
window is handed the same :class:`SharedBatch`, whose
:class:`Evaluations` keep each delta query run over that window by what
determines it: the sign (deleted or inserted rows substituted), the
structural key of the view's delta spec
(:meth:`~repro.engine.query.QuerySpec.key`) and the LSNs the view's other
aliases are read at.  The first view to ask runs the query; every later
one folds the same result (and the fold input already read out of it,
see :meth:`~repro.ivm.view.MaterializedView.apply_delta`).  Four hundred
spec-equal views over a window are one query and four hundred folds.
Everything dies with the round.

Cost attribution: everything the scan charges (interval split
``tuple_cpu``, fingerprint ``compares``) is coordinator overhead,
charged outside any view's cost window; per-view join and fold work
stays charged inside each view's own window at the fan-out point,
keeping the per-view ledger and ``ivm.view.*`` metrics correct.  A
shared evaluation does not change that: a view that reuses a result is
charged, inside its own window, exactly what running the query charged
the view that ran it -- the statement is still the view's, only the
work behind it is shared.  Pricing the shared evaluation once, at the
coordinator like the scan, changes the simulated cost tables and is
left to the change that re-baselines them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Mapping, Sequence

from repro import obs
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.operators import PrescannedRows
from repro.engine.query import QueryResult, QuerySpec
from repro.engine.table import Table


class Evaluation:
    """One executed query: its result, what running it charged, and the
    fold inputs derived from the result so far."""

    __slots__ = ("result", "charges", "folds")

    def __init__(
        self, result: QueryResult, charges: tuple[tuple[str, int], ...] = ()
    ):
        #: Shared by every asker: read, never mutated.
        self.result = result
        #: ``(counter field, count)`` for every field the query charged,
        #: kept where the result may be handed to a second asker.
        self.charges = charges
        #: Fold key -> what a view folds from ``result``
        #: (:meth:`~repro.ivm.view.MaterializedView.apply_delta`): the
        #: same input whether it is inserted or deleted, and an evaluation
        #: is one sign's, so the key does not carry one.
        self.folds: dict[Hashable, object] = {}


class Evaluations:
    """Query results shared between askers of the same query, each asker
    still charged for its own statement.

    :meth:`run` executes a query the first time its key is asked for and
    keeps the result with the counter difference around the execution.
    Every later asker of the key is handed the same result, and the kept
    charges are charged again on the spot -- inside whatever cost window
    the asker has open -- so the counter reads at every window edge what
    it would have read had the asker run the query itself.  A key must
    therefore determine the result *and* the charges: the spec's
    structural key plus whatever fixes the rows each alias reads.

    A query that raises keeps nothing.  Whoever holds the object decides
    how long results live: a round's die with the round.
    """

    def __init__(self, database: Database):
        self.database = database
        self._kept: dict[Hashable, Evaluation] = {}

    def run(
        self,
        key: Hashable,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int] | None = None,
        substitutions: Mapping[str, Sequence[tuple]] | None = None,
    ) -> Evaluation:
        counter = self.database.counter
        kept = self._kept.get(key)
        if kept is not None:
            for field, count in kept.charges:
                counter.charge(field, count)
            obs.counter("ivm.coordinator.delta.reused")
            return kept
        before = counter.snapshot()
        result = self.database.execute(
            spec, snapshot_lsns=snapshot_lsns, substitutions=substitutions
        )
        kept = self._kept[key] = Evaluation(
            result, tuple(counter.since(before).items())
        )
        obs.counter("ivm.coordinator.delta.evaluated")
        return kept

    def __len__(self) -> int:
        return len(self._kept)


@dataclass(frozen=True)
class SharedBatch:
    """One view's slice of a table's shared delta scan.

    ``deleted`` / ``inserted`` are the split row batches, pre-charged by
    the scan (:class:`PrescannedRows`); when ``suppressed`` is true the
    fingerprint proved the whole window a no-op for the requesting view
    and the row batches are empty -- the caller should advance the
    view's ``applied_lsn`` without running its delta-join.

    ``evaluations`` holds the delta queries already run over this window
    in this round: every view handed the window is handed the same one,
    so views whose delta spec and snapshot LSNs agree evaluate once.
    """

    deleted: PrescannedRows
    inserted: PrescannedRows
    events: int
    suppressed: bool
    evaluations: Evaluations | None = None


class _Interval:
    """One merged, scanned LSN interval of a table's delta window."""

    __slots__ = ("lo", "hi", "old_rows", "new_rows", "upd_prefix")

    def __init__(self, lo: int, hi: int, old_rows: list, new_rows: list):
        self.lo = lo
        self.hi = hi
        #: The interval's two log columns: per-modification old/new row
        #: values (None where not applicable), so any subwindow is a
        #: plain slice.
        self.old_rows: list[tuple | None] = old_rows
        self.new_rows: list[tuple | None] = new_rows
        #: ``upd_prefix[i]`` = number of updates among the first ``i``
        #: modifications -- an O(1) "is this subwindow all updates?"
        #: pre-screen.
        self.upd_prefix: list[int] = list(
            accumulate(map(_is_update, old_rows, new_rows), initial=0)
        )


def _is_update(old: tuple | None, new: tuple | None) -> bool:
    return old is not None and new is not None


class _TableScan:
    """Scan state for one base table within one maintenance round."""

    def __init__(self, table: Table, database: Database):
        self.table = table
        self.database = database
        self.log = table.history
        self._requests: list[tuple[int, int]] = []
        #: (lo, hi, refcols) triples whose fingerprints :meth:`run`
        #: precomputes -- so the compare charges land in the
        #: coordinator's scan window, not the first subscriber's ledger.
        self._pending_prints: list[tuple[int, int, frozenset]] = []
        self._intervals: list[_Interval] = []
        self._starts: list[int] = []
        self._counter = None
        # Shared across subscribing views: one batch per (lo, hi) window
        # (its row slices and the delta queries evaluated over them) and
        # (lo, hi, signature) fingerprint verdicts.
        self._batches: dict[tuple[int, int], SharedBatch] = {}
        self._fingerprints: dict[tuple, bool] = {}
        self._positions: dict[frozenset, tuple[int, ...]] = {}

    def add_request(
        self, lo: int, hi: int, refcols: frozenset[str] | None = None
    ) -> None:
        self._requests.append((lo, hi))
        if refcols is not None:
            self._pending_prints.append((lo, hi, refcols))

    def run(self, counter) -> tuple[int, int]:
        """Scan the merged request intervals once; returns (events, rows).

        Charges ``tuple_cpu`` per split row -- exactly what one
        :class:`~repro.engine.operators.RowSource` pass over the same
        window would have charged -- once, regardless of how many views
        subscribe to the window.
        """
        self._counter = counter
        events_total = rows_total = 0
        for lo, hi in _merge_intervals(self._requests):
            olds, news = self.log.columns(lo, hi)
            # A row per image present: an update splits into two.
            produced = 2 * (hi - lo) - olds.count(None) - news.count(None)
            counter.charge("tuple_cpu", produced)
            rows_total += produced
            events_total += hi - lo
            self._intervals.append(_Interval(lo, hi, olds, news))
        self._intervals.sort(key=lambda iv: iv.lo)
        self._starts = [iv.lo for iv in self._intervals]
        for lo, hi, refcols in self._pending_prints:
            interval = self._containing(lo, hi)
            self._fingerprint(interval, lo - interval.lo, hi - interval.lo,
                              refcols)
        return events_total, rows_total

    def _containing(self, lo: int, hi: int) -> _Interval:
        index = bisect_right(self._starts, lo) - 1
        if index >= 0:
            interval = self._intervals[index]
            if interval.lo <= lo and hi <= interval.hi:
                return interval
        raise ExecutionError(
            f"window ({lo}, {hi}] of {self.table.name} was not requested "
            f"before the shared scan ran"
        )

    def batch(
        self, lo: int, hi: int, refcols: frozenset[str] | None
    ) -> SharedBatch:
        """The (lo, hi] slice, fingerprinted against ``refcols``."""
        interval = self._containing(lo, hi)
        a, b = lo - interval.lo, hi - interval.lo
        if refcols is not None and self._fingerprint(interval, a, b, refcols):
            return SharedBatch(
                deleted=PrescannedRows(),
                inserted=PrescannedRows(),
                events=b - a,
                suppressed=True,
            )
        batch = self._batches.get((lo, hi))
        if batch is None:
            batch = self._batches[(lo, hi)] = SharedBatch(
                deleted=PrescannedRows(
                    row for row in interval.old_rows[a:b] if row is not None
                ),
                inserted=PrescannedRows(
                    row for row in interval.new_rows[a:b] if row is not None
                ),
                events=b - a,
                suppressed=False,
                evaluations=Evaluations(self.database),
            )
        return batch

    def _fingerprint(
        self, interval: _Interval, a: int, b: int, refcols: frozenset[str]
    ) -> bool:
        """Whether events ``[a, b)`` of the interval are all no-op updates.

        A window containing any insert or delete can never be a no-op;
        that pre-screen is O(1) off the update-prefix counts and charges
        nothing.  The per-column comparison over all-update windows is
        computed (and its ``compares`` charged) once per distinct
        ``(window, signature)`` and memoized for every other view sharing
        the signature.
        """
        prefix = interval.upd_prefix
        if prefix[b] - prefix[a] != b - a:
            return False
        key = (interval.lo + a, interval.lo + b, refcols)
        verdict = self._fingerprints.get(key)
        if verdict is None:
            positions = self._positions.get(refcols)
            if positions is None:
                schema = self.table.schema
                positions = tuple(
                    sorted(schema.position(column) for column in refcols)
                )
                self._positions[refcols] = positions
            verdict = True
            for i in range(a, b):
                old = interval.old_rows[i]
                new = interval.new_rows[i]
                if any(old[p] != new[p] for p in positions):
                    verdict = False
                    break
            if self._counter is not None and b > a:
                self._counter.charge("compares", b - a)
            self._fingerprints[key] = verdict
        return verdict


def _merge_intervals(requests: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Overlapping/adjacent (lo, hi] windows merged into covering spans.

    Only requested LSNs are covered -- a hole nobody asked for is neither
    scanned nor charged.
    """
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(requests):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class SharedScanRound:
    """One maintenance round: its shared delta scans, across all tables,
    and whatever else about a view-round is not the view's own state.

    Protocol (driven by the coordinator): every view's planned windows
    are :meth:`request`-ed first, :meth:`run` scans each table once, then
    each view's executor pulls its :meth:`batch_for` slices -- one
    :class:`SharedBatch` per distinct window, carrying the delta queries
    the round has evaluated over it so far.

    The executors also keep here, by what determines each, the answers
    that hold for the rest of the round: Definition 1 and the predicted
    cost of an action (:attr:`decided`) and the ledger entry of a round
    that did no work (:attr:`zero_work`).  A fleet of 1 200 views in six
    distinct cases asks six times.  A maintainer stepped on its own makes
    a round of its own that never :attr:`ran`: nothing is scanned ahead,
    it reads its window off the log, and finds nothing kept here.
    Everything dies with the round.
    """

    def __init__(self, database: Database):
        self.database = database
        self._scans: dict[str, _TableScan] = {}
        #: Whether the scan ran, i.e. :meth:`batch_for` has windows.
        self.ran = False
        #: ``(table, applied LSN, k, referenced columns)`` -> the resolved
        #: window: interval bisect, fingerprint verdict and batch, once.
        self._windows: dict[tuple, SharedBatch] = {}
        #: ``(model, pre, action, forced)`` -> ``(backlog, predicted ms)``
        #: of an action the model's ``check_action`` accepted.
        self.decided: dict[tuple, tuple[int, float]] = {}
        #: ``(t, arrivals, pre, action, forced, predicted ms, backlog)``
        #: -> the one :class:`~repro.ivm.ledger.RoundEntry` every
        #: zero-work view-round of the round that agrees on them appends.
        self.zero_work: dict[tuple, object] = {}

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the tables with at least one requested window."""
        return tuple(sorted(self._scans))

    def request(
        self, delta, k: int, refcols: frozenset[str] | None = None
    ) -> None:
        """Register one view's planned window of ``k`` events on a delta.

        ``refcols`` is the requesting view's column signature
        (:meth:`~repro.ivm.view.MaterializedView.referenced_columns`);
        passing it lets :meth:`run` precompute the window's no-op
        fingerprint inside the coordinator's cost window, keeping the
        compare charges out of every view's ledger.
        """
        if k <= 0:
            return
        if self.ran:
            raise ExecutionError("shared scan already ran; requests closed")
        if k > delta.size:
            raise ExecutionError(
                f"requested {k} events from {delta.table.name} but only "
                f"{delta.size} pending"
            )
        scan = self._scans.get(delta.table.name)
        if scan is None:
            scan = _TableScan(delta.table, self.database)
            self._scans[delta.table.name] = scan
        scan.add_request(delta.applied_lsn, delta.applied_lsn + k, refcols)

    def run(self) -> int:
        """Scan every requested table once; returns the table count.

        Charges land on the database's shared counter (the caller decides
        whether to meter them in a window); ``ivm.coordinator.scan.*``
        counters record the scan volume.
        """
        if self.ran:
            raise ExecutionError("shared scan already ran")
        self.ran = True
        counter = self.database.counter
        events_total = rows_total = 0
        for scan in self._scans.values():
            events, rows = scan.run(counter)
            events_total += events
            rows_total += rows
        if self._scans:
            obs.counter("ivm.coordinator.scan.tables", len(self._scans))
        if events_total:
            obs.counter("ivm.coordinator.scan.events", events_total)
        if rows_total:
            obs.counter("ivm.coordinator.scan.rows", rows_total)
        return len(self._scans)

    def batch_for(self, view, alias: str, k: int) -> SharedBatch:
        """The pre-scanned batch for one view's planned flush.

        Views at the same LSN asking for the same ``k`` against the same
        column signature are handed the same object.
        """
        if not self.ran:
            raise ExecutionError("shared scan has not run yet")
        delta = view.deltas[alias]
        table, lo = delta.table.name, delta.applied_lsn
        refcols = view.referenced_columns(alias)
        key = (table, lo, k, refcols)
        batch = self._windows.get(key)
        if batch is None:
            scan = self._scans.get(table)
            if scan is None:
                raise ExecutionError(
                    f"no shared scan covers {table}; the window was never "
                    f"requested"
                )
            batch = self._windows[key] = scan.batch(lo, lo + k, refcols)
        return batch

    def __repr__(self) -> str:
        state = "ran" if self.ran else "pending"
        return f"SharedScanRound(tables={list(self._scans)}, {state})"
