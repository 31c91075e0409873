"""Shared delta scans and shared delta evaluation: per round, one
blocked ModLog pass per table and one delta query per distinct asker.

A fleet of views over the same base table all window the same shared
:class:`~repro.engine.table.ModLog`; maintaining them view-at-a-time
re-reads (and re-charges) the same delta events once per view.  This
module is the table-at-a-time alternative the multi-view coordinator
uses: collect every view's requested delta window per table, merge the
overlapping windows into covering intervals, scan and split each
interval into deleted/inserted row batches **once** -- charging the
scan's ``tuple_cpu`` a single time -- then hand each view its slice
wrapped in :class:`~repro.engine.operators.PrescannedRows` so the
per-view delta-joins skip the source-scan charge the scan prepaid.
Every flush reads its window this way, coordinated or not.

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
see :meth:`~repro.ivm.view.MaterializedView.apply_delta`).  Views kept
in lock step also hold one contents state, and the round keeps the fold
of each input into each shared state (:class:`FoldMemo`) for the
state's other holders.  Four hundred spec-equal views over a window are
one query and one fold.  Everything dies with the round.

The price rule.  A window's read costs one ``tuple_cpu`` per row image
(an update is two), charged when the round reads the window, inside
whatever cost window the reader has open.  A coordinator reads every
planned window in :meth:`SharedScanRound.run`, inside its own scan
window, so the read is charged once and stays out of every view's
ledger (what a fleet round should charge for it is an open question).
Any other window is read on demand by :meth:`SharedScanRound.batch_for`,
the first time a view flushes it.  A maintainer stepped alone, and
:func:`~repro.ivm.calibration.measure_cost_function`, make a round of
one that ran nothing, so they read inside the view's flush window: the
calibrated ``f_i(k)`` and the live step price the same statement, the
one the paper's maintenance SQL runs.  A window is fingerprinted only
when it was :meth:`~SharedScanRound.request`-ed with a column signature
before :meth:`~SharedScanRound.run` -- only a coordinator does that --
so its ``compares`` are the coordinator's too, and a lone view never
pays them or skips a join.  Per-view join and fold work is charged
inside each view's own window at the fan-out point.  A shared
evaluation does not change that: a view that reuses a result is
charged, inside its own window, exactly what running the query charged
the view that ran it -- the statement is still the view's, only the
work behind it is shared.  So is a view that adopts a fold: it is
charged what the fold charged the view that made it, inside its own
window.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, count
from typing import Hashable, Iterable, Mapping, Sequence

from repro import obs
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.operators import PrescannedRows
from repro.engine.query import QueryResult, QuerySpec
from repro.engine.table import Table
from repro.obs import decisions, events


#: Serial numbers for :class:`FoldMemo`, so a state can name the memo
#: that keeps it without keeping the memo alive.
_SERIALS = count(1)


class FoldMemo(dict):
    """The folds of shared view contents made in one round (or one run of
    registrations), kept for the state's other holders.

    ``(evaluation, fold key, aggregate function, state)`` -> ``(the
    folded state, what the fold charged, the error it raised or None)``:
    the first holder of a state to fold an evaluation's input into it
    keeps the fold here, and every later holder adopts the folded state,
    is charged the fold's charges again and raises its error, if it
    raised (:meth:`~repro.ivm.view.MaterializedView._fold`).  An
    evaluation holds one sign's rows, so the key names no sign.  A
    state kept here, and the state it was folded from, carry
    :attr:`serial` as their ``kept`` mark, so no holder folds either in
    place while this memo is the one in use.
    """

    __slots__ = ("serial", "lockstep")

    def __init__(self):
        super().__init__()
        self.serial = next(_SERIALS)
        #: The shared states every holder of which the round runs alike
        #: -- one view-round, over the same windows -- so the first
        #: holder folds them in place and the others adopt that fold;
        #: a shared state not here is folded into a copy.
        self.lockstep: set = set()


class Evaluation:
    """One executed query: its result, what running it charged, the fold
    inputs derived from the result so far, and the memo its folds go to."""

    __slots__ = ("result", "charges", "folds", "memo")

    def __init__(
        self,
        result: QueryResult,
        charges: tuple[tuple[str, int], ...] = (),
        memo: FoldMemo | None = None,
    ):
        #: Shared by every asker: read, never mutated.
        self.result = result
        #: ``(counter field, count)`` for every field the query charged,
        #: kept where the result may be handed to a second asker; checked
        #: here, so handing it over is one ``OperationCounter.replay``.
        self.charges = OperationCounter.checked(charges)
        #: Fold key -> what a view folds from ``result``
        #: (:meth:`~repro.ivm.view.MaterializedView.apply_delta`): the
        #: same input whether it is inserted or deleted, and an evaluation
        #: is one sign's, so the key does not carry one.
        self.folds: dict[Hashable, object] = {}
        #: Where folds of shared contents made from this result are kept
        #: (None: an evaluation nobody else is handed).
        self.memo = memo


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
    how long results live: a round's die with the round.  Its results
    keep their folds in ``memo``: the round's, or one of its own.
    """

    def __init__(self, database: Database, memo: FoldMemo | None = None):
        self.database = database
        self.memo = FoldMemo() if memo is None else memo
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
            counter.replay(kept.charges)
            obs.counter("ivm.coordinator.delta.reused")
            return kept
        before = counter.snapshot()
        result = self.database.execute(
            spec, snapshot_lsns=snapshot_lsns, substitutions=substitutions
        )
        kept = self._kept[key] = Evaluation(
            result, tuple(counter.since(before).items()), self.memo
        )
        obs.counter("ivm.coordinator.delta.evaluated")
        return kept

    def __len__(self) -> int:
        return len(self._kept)


@dataclass(frozen=True)
class SharedBatch:
    """One window of a table's delta scan, as every view flushing it
    reads it.

    ``deleted`` / ``inserted`` are the split row batches, charged by the
    scan that read them (:class:`PrescannedRows`).  ``evaluations``
    holds the delta queries already run over this window in this round:
    every view handed the window is handed the same one, so views whose
    delta spec and snapshot LSNs agree evaluate once.
    """

    deleted: PrescannedRows
    inserted: PrescannedRows
    evaluations: Evaluations


class _Interval:
    """One scanned LSN interval of a table's mod log: a merge of
    requested windows, or one window read on demand."""

    __slots__ = ("lo", "hi", "old_rows", "new_rows", "rows", "upd_prefix")

    def __init__(self, lo: int, hi: int, old_rows: list, new_rows: list):
        self.lo = lo
        self.hi = hi
        #: The interval's two log columns: per-modification old/new row
        #: values (None where not applicable), so any subwindow is a
        #: plain slice.
        self.old_rows: list[tuple | None] = old_rows
        self.new_rows: list[tuple | None] = new_rows
        #: Row images present: an update splits into two.
        self.rows = 2 * (hi - lo) - old_rows.count(None) - new_rows.count(None)
        #: ``upd_prefix[i]`` = number of updates among the first ``i``
        #: modifications -- an O(1) "is this subwindow all updates?"
        #: pre-screen, built by the first fingerprint.
        self.upd_prefix: list[int] | None = None


def _is_update(old: tuple | None, new: tuple | None) -> bool:
    return old is not None and new is not None


class _TableScan:
    """Scan state for one base table within one maintenance round."""

    def __init__(
        self,
        table: Table,
        database: Database,
        fingerprints: dict[tuple, bool],
        memo: FoldMemo,
    ):
        self.table = table
        self.database = database
        self.memo = memo
        self.log = table.history
        #: The requested (lo, hi) windows, each once however many views
        #: asked for it (a dict, for its order).
        self._requests: dict[tuple[int, int], None] = {}
        #: (lo, hi, refcols) triples whose fingerprints :meth:`run`
        #: computes -- the only fingerprints there are -- each once.
        self._pending_prints: dict[tuple[int, int, frozenset], None] = {}
        self._intervals: list[_Interval] = []
        self._starts: list[int] = []
        # Shared across subscribing views: one batch per (lo, hi) window
        # (its row slices and the delta queries evaluated over them) and
        # the fingerprint verdicts, kept in the round's one dict by
        # (table, lo, hi, signature).
        self._batches: dict[tuple[int, int], SharedBatch] = {}
        self.fingerprints = fingerprints
        self._positions: dict[frozenset, tuple[int, ...]] = {}

    def add_request(
        self, lo: int, hi: int, refcols: frozenset[str] | None = None
    ) -> None:
        self._requests[lo, hi] = None
        if refcols is not None:
            self._pending_prints[lo, hi, refcols] = None

    def run(self) -> tuple[int, int]:
        """Scan the merged request intervals once, then fingerprint the
        requested windows; returns (events, rows)."""
        events_total = rows_total = 0
        for lo, hi in _merge_intervals(self._requests):
            rows_total += self._scan(lo, hi).rows
            events_total += hi - lo
        for lo, hi, refcols in self._pending_prints:
            interval = self._containing(lo, hi)
            self._fingerprint(interval, lo - interval.lo, hi - interval.lo,
                              refcols)
        return events_total, rows_total

    def _scan(self, lo: int, hi: int) -> _Interval:
        """Read (lo, hi] off the log, charging ``tuple_cpu`` per row
        image -- what one :class:`~repro.engine.operators.RowSource` pass
        over the split rows would charge -- once, however many views
        read the window."""
        olds, news = self.log.columns(lo, hi)
        interval = _Interval(lo, hi, olds, news)
        self.database.counter.charge("tuple_cpu", interval.rows)
        index = bisect_right(self._starts, lo)
        self._starts.insert(index, lo)
        self._intervals.insert(index, interval)
        return interval

    def _containing(self, lo: int, hi: int) -> _Interval | None:
        index = bisect_right(self._starts, lo) - 1
        if index >= 0:
            interval = self._intervals[index]
            if interval.lo <= lo and hi <= interval.hi:
                return interval
        return None

    def batch(self, lo: int, hi: int) -> SharedBatch:
        """The (lo, hi] slice, read now if no scan covered it."""
        batch = self._batches.get((lo, hi))
        if batch is None:
            interval = self._containing(lo, hi) or self._scan(lo, hi)
            a, b = lo - interval.lo, hi - interval.lo
            batch = self._batches[(lo, hi)] = SharedBatch(
                deleted=PrescannedRows(
                    row for row in interval.old_rows[a:b] if row is not None
                ),
                inserted=PrescannedRows(
                    row for row in interval.new_rows[a:b] if row is not None
                ),
                evaluations=Evaluations(self.database, self.memo),
            )
        return batch

    def _fingerprint(
        self, interval: _Interval, a: int, b: int, refcols: frozenset[str]
    ) -> None:
        """Record whether events ``[a, b)`` of the interval are all no-op
        updates.

        A window containing any insert or delete can never be a no-op;
        that pre-screen is O(1) off the update-prefix counts and charges
        nothing.  The per-column comparison over all-update windows is
        computed (and its ``compares`` charged) once per distinct
        ``(window, signature)`` and kept for every view sharing the
        signature.
        """
        prefix = interval.upd_prefix
        if prefix is None:
            prefix = interval.upd_prefix = list(accumulate(
                map(_is_update, interval.old_rows, interval.new_rows),
                initial=0,
            ))
        if prefix[b] - prefix[a] != b - a:
            return
        key = (self.table.name, interval.lo + a, interval.lo + b, refcols)
        if key in self.fingerprints:
            return
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
        if b > a:
            self.database.counter.charge("compares", b - a)
        self.fingerprints[key] = verdict


def _merge_intervals(
    requests: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
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
    """One maintenance round: its delta reads, across all tables, and
    whatever else about a view-round is not the view's own state.

    Protocol: a coordinator :meth:`request`-s every view's planned
    windows first and :meth:`run`-s the round, which scans each table
    once and fingerprints the requested windows; then each view's
    executor asks :meth:`proven_noop` per window and pulls the rest with
    :meth:`batch_for` -- one :class:`SharedBatch` per distinct window,
    carrying the delta queries the round has evaluated over it so far.
    A window the round did not scan is read when it is first asked for.

    The planners and executors also keep here, by what determines each,
    the answers that hold for the rest of the round: the action of a
    policy whose class declares a pure ``decide``
    (:attr:`actions`), Definition 1 and the predicted cost of an action
    (:attr:`decided`), the ledger entry of a round that did no work
    (:attr:`zero_work`), the folds of shared contents (:attr:`memo`) and
    the work of a view-round on a lock-step state (:attr:`worked`).
    A fleet of 1 200 views in six distinct cases asks six times.  A
    maintainer stepped on its own makes a round of its own that never
    runs: it reads its windows on demand, suppresses nothing, and finds
    nothing kept here.  Everything dies with the round.

    The round also carries the telemetry probes, made once when it is
    made: :attr:`recorder` and :attr:`wanted`, which every view-round of
    the round reads instead of asking again.
    """

    def __init__(self, database: Database):
        self.database = database
        self._scans: dict[str, _TableScan] = {}
        #: Whether :meth:`run` ran; requests are closed after it.
        self.ran = False
        #: The thread's metrics recorder (None: telemetry off) and the
        #: event kinds somebody wants (:attr:`EventLog.wanted`, empty
        #: with telemetry off), probed once for the round.
        self.recorder = obs.get_recorder()
        self.wanted = events.installed().wanted
        #: Whether somebody consumes flush calibration samples -- a
        #: recorder or a ``calibration`` subscriber -- so each metered
        #: flush is timed as its own sample.
        self.calibrating = (
            self.recorder is not None or "calibration" in self.wanted
        )
        #: ``(model, policy class, pre)`` -> the action every view of
        #: that case takes, for policies whose class declares
        #: :attr:`~repro.core.policies.Policy.PURE_DECIDE`.  None in a
        #: round whose decisions somebody observes
        #: (:func:`repro.obs.decisions.active`): then every view decides
        #: for itself, and each decision is that view's own event.
        self.actions: dict[tuple, tuple[int, ...]] | None = (
            None if decisions.active() else {}
        )
        #: ``(model, pre, action, forced)`` -> ``(backlog, predicted ms)``
        #: of an action the model's ``check_action`` accepted.
        self.decided: dict[tuple, tuple[int, float]] = {}
        #: ``(t, arrivals, pre, action, forced, predicted ms, backlog)``
        #: -> the one :class:`~repro.ivm.ledger.RoundEntry` every
        #: zero-work view-round of the round that agrees on them appends.
        self.zero_work: dict[tuple, object] = {}
        #: ``(table, lo, hi, column signature)`` -> whether every event
        #: of the window is a no-op update for that signature; filled by
        #: :meth:`run`, empty in a round that never ran.
        self.fingerprints: dict[tuple, bool] = {}
        #: The folds of shared contents made over this round's windows,
        #: for the states' other holders.
        self.memo = FoldMemo()
        #: Shared state in :attr:`FoldMemo.lockstep` -> the charges of the
        #: work view-round its first holder ran, which every other holder
        #: replays instead of running its own.  None while
        #: :attr:`calibrating`: each holder's metered flushes are then its
        #: own samples.
        self.worked: dict[object, tuple] | None = (
            None if self.calibrating else {}
        )

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the tables with at least one requested or read
        window."""
        return tuple(sorted(self._scans))

    def _scan_of(self, table: Table) -> _TableScan:
        scan = self._scans.get(table.name)
        if scan is None:
            scan = self._scans[table.name] = _TableScan(
                table, self.database, self.fingerprints, self.memo
            )
        return scan

    def request(
        self, delta, k: int, refcols: frozenset[str] | None = None
    ) -> None:
        """Register one view's planned window of ``k`` events on a delta.

        ``refcols`` is the requesting view's column signature
        (:meth:`~repro.ivm.view.MaterializedView.referenced_columns`);
        passing it lets :meth:`run` fingerprint the window inside the
        coordinator's cost window.
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
        self._scan_of(delta.table).add_request(
            delta.applied_lsn, delta.applied_lsn + k, refcols
        )

    def run(self) -> int:
        """Scan every requested table once; returns the table count.

        Charges land on the database's shared counter (the caller decides
        whether to meter them in a window); ``ivm.coordinator.scan.*``
        counters record the scan volume.
        """
        if self.ran:
            raise ExecutionError("shared scan already ran")
        self.ran = True
        events_total = rows_total = 0
        for scan in self._scans.values():
            events, rows = scan.run()
            events_total += events
            rows_total += rows
        if self._scans:
            obs.counter("ivm.coordinator.scan.tables", len(self._scans))
        if events_total:
            obs.counter("ivm.coordinator.scan.events", events_total)
        if rows_total:
            obs.counter("ivm.coordinator.scan.rows", rows_total)
        return len(self._scans)

    def proven_noop(
        self, delta, k: int, refcols: frozenset[str] | None
    ) -> bool:
        """Whether :meth:`run` proved the next ``k`` events of ``delta``
        a no-op for a view with column signature ``refcols``.  One
        lookup: it charges nothing."""
        lo = delta.applied_lsn
        return self.fingerprints.get(
            (delta.table.name, lo, lo + k, refcols), False
        )

    def batch_for(self, delta, k: int) -> SharedBatch:
        """The batch for a flush of the next ``k`` events of ``delta``,
        read now -- and charged to whatever cost window is open -- if the
        round did not scan it.

        Views at the same LSN asking for the same ``k`` are handed the
        same object.
        """
        lo = delta.applied_lsn
        return self._scan_of(delta.table).batch(lo, lo + k)

    def __repr__(self) -> str:
        state = "ran" if self.ran else "pending"
        return f"SharedScanRound(tables={list(self._scans)}, {state})"
