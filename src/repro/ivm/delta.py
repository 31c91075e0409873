"""Delta tables: the unprocessed-modification queues of the paper.

Each materialized view keeps one :class:`DeltaTable` per base table it
reads.  Base-table modifications are applied to the base tables
immediately (the paper's setting); the delta table records which of those
modifications the *view* has not yet incorporated.

Concretely a delta table is a FIFO window over the base table's
modification history between two LSNs:

* ``applied_lsn`` -- everything at or below this LSN is reflected in the
  view's contents; maintenance joins read the base table's snapshot at
  this LSN (state-bug safety);
* ``seen_lsn`` -- the newest modification the delta table has pulled from
  the base table's history.

``size`` (the paper's ``s_t[i]`` component) is the number of events in
between.  A flush of ``k`` reads the ``k`` oldest of them and
:meth:`~DeltaTable.advance` moves ``applied_lsn`` past the last one --
FIFO order, exactly the processing discipline Section 3's analysis
assumes.

Storage: a delta table holds **no events at all** -- just the two LSNs.
The modifications live once, in the owning table's shared chunked
:class:`~repro.engine.table.ModLog`, as two columns (before-images and
after-images).  Maintenance reads a window of it through its round's
scan (:mod:`repro.ivm.sharedscan`).  Eight views over one base table
cost eight offset pairs, not eight copies of its history
(``tests/integration/test_block_equivalence.py`` asserts the sharing).
This works because the log is LSN-dense (position ``L - 1`` is LSN
``L``), so the window boundaries alone determine the batch: ``size ==
seen_lsn - applied_lsn`` is arithmetic, reads are O(k) slices, and
``advance`` is O(1).
"""

from __future__ import annotations

from repro import obs
from repro.engine.errors import ExecutionError
from repro.engine.table import Table


class DeltaTable:
    """Pending modifications of one base table, from one view's perspective."""

    def __init__(self, table: Table):
        self.table = table
        #: The shared modification log (owned by the table, never copied).
        self.log = table.history
        #: LSN up to which the view has incorporated this table.
        self.applied_lsn = table.current_lsn
        #: LSN up to which events have been pulled into the window.
        self.seen_lsn = table.current_lsn
        # Pin the unprocessed window against log truncation: as long as
        # this delta table is alive (and not closed), history above
        # ``applied_lsn`` survives ``log.truncate()``.  The registration
        # is weak, so a garbage-collected delta never pins history.
        self.log.subscribe(self)

    def close(self) -> None:
        """Release this delta's truncation pin on the shared log.

        Idempotent.  Call when the owning view is dropped; afterwards the
        log may reclaim the history this window was holding.
        """
        self.log.unsubscribe(self)

    @property
    def size(self) -> int:
        """Number of unprocessed modifications (``s_t[i]`` in the paper)."""
        return self.seen_lsn - self.applied_lsn

    def pull(self) -> int:
        """Extend the window over new base-table modifications.

        Returns the number of newly ingested events.  Call after base-table
        modifications to keep the delta table current; the maintainer does
        this at every time step.  O(1): the log is shared, so "ingesting"
        is advancing ``seen_lsn``.
        """
        current = self.table.current_lsn
        new = current - self.seen_lsn
        if new:
            self.seen_lsn = current
            obs.counter("ivm.delta.window_pulled", new)
        return new

    def advance(self, k: int) -> None:
        """Mark the ``k`` oldest events incorporated: after a flush read
        them through its round, or when the round proved them a no-op.

        FIFO and contiguous: afterwards the view-incorporated snapshot of
        this base table is exactly the state after the last of them.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if k > self.size:
            raise ExecutionError(
                f"cannot take {k} events; only {self.size} pending "
                f"for {self.table.name}"
            )
        self.applied_lsn += k
        if k:
            obs.counter("ivm.delta.window_taken", k)

    def __repr__(self) -> str:
        return (
            f"DeltaTable({self.table.name!r}, size={self.size}, "
            f"applied_lsn={self.applied_lsn})"
        )
