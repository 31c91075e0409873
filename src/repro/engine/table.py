"""MVCC-lite table storage.

Every modification to a table gets a monotonically increasing **log
sequence number** (LSN).  Row versions carry ``(xmin, xmax)``: the LSN that
created them and the LSN that deleted them (``None`` while live).  A
:class:`~repro.engine.snapshot.Snapshot` at LSN ``L`` sees exactly the rows
with ``xmin <= L < xmax`` -- i.e. the table as of modification ``L``.

Why a view-maintenance reproduction needs this: the paper applies new
modifications to base tables *immediately* while the view lags behind.
When a maintenance batch for ``dR_i`` finally runs, its join against the
other base tables must see them at the state the view has already
incorporated, not their current state; joining against the current state is
the *state bug* of Colby et al. that the paper's footnote 1 mentions.
Snapshots make the correct historical read a one-liner.

Updates are recorded as delete-plus-insert under a single LSN, and every
modification appends a :class:`ModEvent` to the table's history; delta
tables in :mod:`repro.ivm.delta` are windows over this history.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.index import HashIndex, Index, SortedIndex
from repro.engine.snapshot import Snapshot
from repro.engine.types import Schema


@dataclass(slots=True)
class RowVersion:
    """One stored version of a row."""

    values: tuple
    xmin: int
    xmax: int | None = None

    def visible_at(self, lsn: int) -> bool:
        """Whether this version exists in the snapshot at ``lsn``."""
        return self.xmin <= lsn and (self.xmax is None or self.xmax > lsn)


@dataclass(frozen=True)
class ModEvent:
    """One logical modification, as seen by delta tables.

    ``kind`` is ``"insert"``, ``"delete"``, or ``"update"``; ``old_values``
    / ``new_values`` are the affected row's contents before/after (``None``
    where not applicable).
    """

    lsn: int
    kind: str
    old_values: tuple | None
    new_values: tuple | None

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete", "update"):
            raise ValueError(f"unknown modification kind {self.kind!r}")


class ModLog:
    """The shared, chunked modification log of one table.

    There is exactly **one** ModLog per table; every
    :class:`~repro.ivm.delta.DeltaTable` over that table is a zero-copy
    ``(applied_lsn, seen_lsn)`` window into it, so N views hold N offset
    pairs -- not N deques of event copies.

    Structure: an append-only sequence of :class:`ModEvent`, stored as a
    list of fixed-size chunks so very long histories avoid the large-list
    reallocation pattern and :meth:`truncate` can drop whole chunks.  The
    log enforces the invariant that makes windows O(1): every table
    modification bumps the LSN by exactly one and appends exactly one
    event, so the event with LSN ``L`` lives at log position ``L - 1`` and
    any LSN range maps to a contiguous slice with no searching.

    Truncation: long-lived coordinators register every
    :class:`~repro.ivm.delta.DeltaTable` over this log as a *subscriber*
    (weakly referenced -- a garbage-collected reader never pins history).
    :meth:`truncate` drops leading whole chunks once every live
    subscriber's ``applied_lsn`` has passed them; LSN addressing is
    preserved via a base offset, and reads below the truncation point
    raise.
    """

    __slots__ = ("_chunks", "_chunk_size", "_length", "_base",
                 "_subscribers", "__weakref__")

    #: Events per chunk.  Large enough that chunk bookkeeping is noise,
    #: small enough that a truncation pass has useful granularity.
    DEFAULT_CHUNK_SIZE = 4096

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._chunks: list[list[ModEvent]] = []
        self._chunk_size = chunk_size
        self._length = 0
        #: Events dropped from the front by truncation (always a whole
        #: number of chunks, so chunk alignment never shifts).
        self._base = 0
        #: Live readers exposing ``applied_lsn``; weakly held.
        self._subscribers: weakref.WeakSet = weakref.WeakSet()

    def __len__(self) -> int:
        """Logical length: the highest LSN ever appended (truncation does
        not rewind it -- LSN addressing is stable for the log's lifetime)."""
        return self._length

    def __iter__(self) -> Iterator[ModEvent]:
        """Iterate the *retained* events (everything not yet truncated)."""
        for chunk in self._chunks:
            yield from chunk

    @property
    def truncated_lsn(self) -> int:
        """Events at or below this LSN have been dropped."""
        return self._base

    @property
    def retained(self) -> int:
        """Number of events still held in memory."""
        return self._length - self._base

    # -- subscribers ---------------------------------------------------

    def subscribe(self, reader) -> None:
        """Register a reader (anything exposing ``applied_lsn``) whose
        unprocessed window must survive truncation.  Weakly referenced."""
        self._subscribers.add(reader)

    def unsubscribe(self, reader) -> None:
        """Drop a reader's truncation pin (no-op when not subscribed)."""
        self._subscribers.discard(reader)

    def subscriber_count(self) -> int:
        """Number of live subscribers."""
        return len(self._subscribers)

    def safe_truncation_lsn(self) -> int:
        """The highest LSN every live subscriber has already applied.

        With no subscribers the whole history is reclaimable.
        """
        floor = self._length
        for reader in self._subscribers:
            applied = reader.applied_lsn
            if applied < floor:
                floor = applied
        return floor

    def truncate(self, upto_lsn: int | None = None) -> int:
        """Drop leading whole chunks at or below ``upto_lsn``.

        ``upto_lsn`` defaults to :meth:`safe_truncation_lsn`, and is
        clamped to it -- a caller can never truncate history a live
        subscriber still needs.  Only whole chunks are released (the
        offset arithmetic stays chunk-aligned); returns the number of
        events dropped.
        """
        limit = self.safe_truncation_lsn()
        upto = limit if upto_lsn is None else min(upto_lsn, limit)
        dropped = 0
        cs = self._chunk_size
        while (
            self._chunks
            and len(self._chunks[0]) == cs
            and self._base + cs <= upto
        ):
            del self._chunks[0]
            self._base += cs
            dropped += cs
        return dropped

    # -- storage -------------------------------------------------------

    def append(self, event: ModEvent) -> None:
        """Append the event for the next LSN (enforces the density invariant)."""
        if event.lsn != self._length + 1:
            raise ExecutionError(
                f"modification log expects LSN {self._length + 1}, "
                f"got {event.lsn}; the log must stay LSN-dense"
            )
        if not self._chunks or len(self._chunks[-1]) >= self._chunk_size:
            self._chunks.append([])
        self._chunks[-1].append(event)
        self._length += 1

    def window(self, lsn_from: int, lsn_to: int) -> list[ModEvent]:
        """Events with ``lsn_from < lsn <= lsn_to``, oldest first.

        O(window length): the range maps straight to log positions
        ``[lsn_from, lsn_to)``; no scan over the rest of the history.
        Windows reaching below the truncation point raise.
        """
        if not 0 <= lsn_from <= lsn_to <= self._length:
            raise ExecutionError(
                f"log window ({lsn_from}, {lsn_to}] outside [0, {self._length}]"
            )
        if lsn_from < self._base:
            raise ExecutionError(
                f"log window ({lsn_from}, {lsn_to}] reaches below the "
                f"truncation point {self._base}; history was reclaimed"
            )
        if lsn_from == lsn_to:
            return []
        cs = self._chunk_size
        lo, hi = lsn_from - self._base, lsn_to - self._base
        first, last = lo // cs, (hi - 1) // cs
        if first == last:
            return self._chunks[first][lo % cs : (hi - 1) % cs + 1]
        out = self._chunks[first][lo % cs :]
        for i in range(first + 1, last):
            out.extend(self._chunks[i])
        out.extend(self._chunks[last][: (hi - 1) % cs + 1])
        return out

    def __getitem__(self, position: int) -> ModEvent:
        """The event at zero-based log position (= LSN - 1)."""
        if not 0 <= position < self._length:
            raise IndexError(f"log position {position} outside [0, {self._length})")
        if position < self._base:
            raise IndexError(
                f"log position {position} below truncation point {self._base}"
            )
        offset = position - self._base
        return self._chunks[offset // self._chunk_size][
            offset % self._chunk_size
        ]

    def __repr__(self) -> str:
        return (
            f"ModLog(events={self._length}, chunks={len(self._chunks)}, "
            f"truncated={self._base})"
        )


class Table:
    """An append-only versioned heap with secondary indexes and a history."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        counter: OperationCounter | None = None,
    ):
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name {name!r}")
        self.name = name
        self.schema = schema
        self.counter = counter or OperationCounter()
        self._versions: list[RowVersion] = []
        self._live_count = 0
        self._lsn = 0
        #: The single shared modification log; delta tables window into it.
        self.history = ModLog()
        self.indexes: dict[str, Index] = {}
        self._index_on_cache: dict[str, Index | None] = {}
        #: The most recent snapshot handed out (at most one per table).
        self._retained: Snapshot | None = None
        #: Snapshots below this LSN lost versions to :meth:`vacuum`.
        self._vacuumed_lsn = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def current_lsn(self) -> int:
        """LSN of the latest modification (0 when pristine)."""
        return self._lsn

    @property
    def live_count(self) -> int:
        """Number of rows visible at the current LSN."""
        return self._live_count

    def version_count(self) -> int:
        """Total stored versions, live and dead (storage footprint)."""
        return len(self._versions)

    def version(self, rid: int) -> RowVersion:
        """The stored version at slot ``rid``."""
        return self._versions[rid]

    def live_rows(self) -> Iterator[tuple]:
        """Iterate current row values (no cost charged; introspection only)."""
        for v in self._versions:
            if v.xmax is None:
                yield v.values

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash", name: str | None = None) -> Index:
        """Create (and backfill) a secondary index on ``column``."""
        pos = self.schema.position(column)
        index_name = name or f"{self.name}_{column}_{kind}"
        if index_name in self.indexes:
            raise SchemaError(f"index {index_name!r} already exists")
        if kind == "hash":
            index: Index = HashIndex(index_name, column)
        elif kind == "sorted":
            index = SortedIndex(index_name, column)
        else:
            raise SchemaError(f"unknown index kind {kind!r}")
        # Backfill every version (not just live ones) so snapshots taken at
        # any LSN can use the index.
        for rid, v in enumerate(self._versions):
            index.add(v.values[pos], rid)
        self.counter.charge("index_maintains", len(self._versions))
        self.indexes[index_name] = index
        self._index_on_cache.clear()
        return index

    def index_on(self, column: str) -> Index | None:
        """Any index whose key is ``column`` (hash preferred), else None.

        Resolution is cached per column (joins probe this once per lookup);
        :meth:`create_index` and :meth:`vacuum` invalidate the cache.
        """
        try:
            return self._index_on_cache[column]
        except KeyError:
            pass
        hash_hit = None
        sorted_hit = None
        for index in self.indexes.values():
            if index.column == column:
                if isinstance(index, HashIndex):
                    hash_hit = index
                else:
                    sorted_hit = index
        # Explicit None test: indexes define __len__, so an *empty* hash
        # index is falsy and `or` would wrongly skip it.
        hit = hash_hit if hash_hit is not None else sorted_hit
        self._index_on_cache[column] = hit
        return hit

    # ------------------------------------------------------------------
    # Modifications (each bumps the LSN and appends a ModEvent)
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> ModEvent:
        """Insert one row; returns the logged event."""
        row = self.schema.validate_row(values)
        self._lsn += 1
        rid = len(self._versions)
        self._versions.append(RowVersion(values=row, xmin=self._lsn))
        self._live_count += 1
        self.counter.charge("row_writes")
        for index in self.indexes.values():
            pos = self.schema.position(index.column)
            index.add(row[pos], rid)
            self.counter.charge("index_maintains")
        event = ModEvent(lsn=self._lsn, kind="insert", old_values=None, new_values=row)
        self.history.append(event)
        return event

    def delete_rid(self, rid: int) -> ModEvent:
        """Delete the live version at slot ``rid``."""
        version = self._version_live(rid)
        self._lsn += 1
        version.xmax = self._lsn
        self._live_count -= 1
        self.counter.charge("row_writes")
        # Indexes are version-aware: dead versions stay indexed and readers
        # filter by snapshot visibility, so historical probes remain exact.
        # Marking the tombstone still costs index maintenance work.
        self.counter.charge("index_maintains", len(self.indexes))
        event = ModEvent(
            lsn=self._lsn, kind="delete", old_values=version.values, new_values=None
        )
        self.history.append(event)
        return event

    def update_rid(self, rid: int, changes: dict[str, Any]) -> ModEvent:
        """Update columns of the live version at slot ``rid``.

        Recorded as delete-plus-insert under one LSN, so snapshots see the
        row atomically flip from old to new values.
        """
        if not changes:
            raise ExecutionError("update with no changed columns")
        version = self._version_live(rid)
        new_values = list(version.values)
        for column, value in changes.items():
            pos = self.schema.position(column)
            new_values[pos] = self.schema.columns[pos].type.validate(value)
        self._lsn += 1
        version.xmax = self._lsn
        new_rid = len(self._versions)
        new_row = tuple(new_values)
        self._versions.append(RowVersion(values=new_row, xmin=self._lsn))
        self.counter.charge("row_writes", 2)
        for index in self.indexes.values():
            pos = self.schema.position(index.column)
            # Old version stays indexed (version-aware reads filter it);
            # only the new version needs an entry.
            index.add(new_row[pos], new_rid)
            self.counter.charge("index_maintains", 2)
        event = ModEvent(
            lsn=self._lsn,
            kind="update",
            old_values=version.values,
            new_values=new_row,
        )
        self.history.append(event)
        return event

    def find_rids(self, predicate: Callable[[tuple], bool]) -> list[int]:
        """Row ids of live versions matching ``predicate`` (no cost charged)."""
        return [
            rid
            for rid, v in enumerate(self._versions)
            if v.xmax is None and predicate(v.values)
        ]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, lsn: int | None = None) -> Snapshot:
        """The table's state as of ``lsn`` (default: now).

        The most recent snapshot is retained: asking for the same LSN
        again returns it, with whatever it has materialized (visible rows,
        probe cache, hash-join build sides), and a snapshot at a later LSN
        rolls its build sides forward through :attr:`history` instead of
        rebuilding them.  LSNs :meth:`vacuum` reclaimed versions of raise.
        """
        at = self._lsn if lsn is None else lsn
        if at < 0 or at > self._lsn:
            raise ExecutionError(
                f"snapshot LSN {at} outside [0, {self._lsn}] for {self.name}"
            )
        if at < self._vacuumed_lsn:
            raise ExecutionError(
                f"snapshot LSN {at} of {self.name} is below the vacuum "
                f"watermark {self._vacuumed_lsn}; its versions were reclaimed"
            )
        retained = self._retained
        if retained is not None and retained.lsn == at:
            obs.counter("engine.snapshot.reused")
            return retained
        self._retained = Snapshot(self, at, retained)
        return self._retained

    def events_between(self, lsn_from: int, lsn_to: int) -> list[ModEvent]:
        """History events with ``lsn_from < lsn <= lsn_to`` (a delta window)."""
        return self.history.window(lsn_from, lsn_to)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def vacuum(self, before_lsn: int | None = None) -> int:
        """Reclaim dead row versions no snapshot at or after ``before_lsn``
        can see; returns the number of versions removed.

        Compaction **renumbers row ids** and rebuilds every index, so any
        externally held rid (e.g. an update stream's victim list) becomes
        invalid -- vacuum between workload phases, not during one.  History
        is *not* trimmed: delta tables window over it by LSN, which this
        operation does not disturb.  ``before_lsn`` defaults to the current
        LSN (reclaim everything dead); pass the oldest LSN any live
        snapshot or lagging view still reads to keep those readable:
        once versions are reclaimed, :meth:`snapshot` below the watermark
        raises, and the retained snapshot is dropped.
        """
        watermark = self._lsn if before_lsn is None else before_lsn
        if not 0 <= watermark <= self._lsn:
            raise ExecutionError(
                f"vacuum watermark {watermark} outside [0, {self._lsn}]"
            )
        survivors = [
            v
            for v in self._versions
            if v.xmax is None or v.xmax > watermark
        ]
        reclaimed = len(self._versions) - len(survivors)
        if reclaimed == 0:
            return 0
        self._versions = survivors
        self._vacuumed_lsn = max(self._vacuumed_lsn, watermark)
        self._retained = None
        self.counter.charge("row_writes", len(survivors))
        self._index_on_cache.clear()
        # Rebuild every index against the surviving versions.
        for index_name, old_index in list(self.indexes.items()):
            column = old_index.column
            kind = "hash" if isinstance(old_index, HashIndex) else "sorted"
            del self.indexes[index_name]
            self.create_index(column, kind=kind, name=index_name)
        return reclaimed

    # ------------------------------------------------------------------

    def _version_live(self, rid: int) -> RowVersion:
        if not 0 <= rid < len(self._versions):
            raise ExecutionError(f"row id {rid} out of range for {self.name}")
        version = self._versions[rid]
        if version.xmax is not None:
            raise ExecutionError(f"row id {rid} in {self.name} is not live")
        return version

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._live_count}, "
            f"lsn={self._lsn}, indexes={list(self.indexes)})"
        )
