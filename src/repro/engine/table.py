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

Updates are recorded as delete-plus-insert under a single LSN.  Every
modification takes one position of the table's history, a column-major
:class:`ModLog`: its before-image in one column, its after-image in the
other, nothing else stored.  Delta tables in :mod:`repro.ivm.delta` are
windows over this history and read it as two column slices; a
:class:`ModEvent` is what the log builds for a reader that wants one
modification as a record.

Writes are batches (:meth:`Table.insert_rows`, :meth:`Table.update_rids`,
:meth:`Table.delete_rids`): every row of a batch still takes its own LSN,
and what is charged is the sum over its rows, but values are validated a
column at a time and the counter, the key maps and the log are each
visited once.  The single-row methods are batches of one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence,
)

from repro import obs
from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.index import Index
from repro.engine.snapshot import Snapshot
from repro.engine.types import Schema


@dataclass(slots=True)
class RowVersion:
    """One stored version of a row."""

    values: tuple
    xmin: int
    xmax: int | None = None


@dataclass(frozen=True)
class ModEvent:
    """One logical modification, as handed to whoever reads the log event
    by event.

    ``kind`` is ``"insert"``, ``"delete"``, or ``"update"``; ``old_values``
    / ``new_values`` are the affected row's contents before/after (``None``
    where not applicable).  A read-side record: no write builds one, the
    :class:`ModLog` stores the two images and makes the event when asked.
    """

    lsn: int
    kind: str
    old_values: tuple | None
    new_values: tuple | None

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete", "update"):
            raise ValueError(f"unknown modification kind {self.kind!r}")


def _kind(old: tuple | None, new: tuple | None) -> str:
    """What a modification with these two images is."""
    return "insert" if old is None else "delete" if new is None else "update"


def _event(lsn: int, old: tuple | None, new: tuple | None) -> ModEvent:
    return ModEvent(lsn, _kind(old, new), old, new)


def _group(
    key_map: dict[Hashable, list[RowVersion]],
    pos: int,
    versions: Iterable[RowVersion],
) -> None:
    """Append each of ``versions``, in order, to its group in ``key_map``:
    the one keyed by its value at position ``pos``."""
    for version in versions:
        key_map.setdefault(version.values[pos], []).append(version)


def _cut(chunks: list[list], first: int, last: int, a: int, b: int) -> list:
    """``chunks[first][a:] + ... + chunks[last][:b]`` as one new list."""
    if first == last:
        return chunks[first][a:b]
    out = chunks[first][a:]
    for i in range(first + 1, last):
        out.extend(chunks[i])
    out.extend(chunks[last][:b])
    return out


class ModLog:
    """The shared, chunked, column-major modification log of one table.

    There is exactly **one** ModLog per table; every
    :class:`~repro.ivm.delta.DeltaTable` over that table is a zero-copy
    ``(applied_lsn, seen_lsn)`` window into it, so N views hold N offset
    pairs -- not N deques of event copies.

    Structure: two parallel append-only columns, the modifications'
    before-images and their after-images (``None`` on one side is an
    insert or a delete), each stored as a list of fixed-size chunks so
    very long histories avoid the large-list reallocation pattern and
    :meth:`truncate` can drop whole chunks.  There is no per-modification
    object and no stored LSN: the modification with LSN ``L`` *is* position
    ``L - 1`` of both columns, so any LSN range is a pair of contiguous
    slices (:meth:`columns`) with no searching, and the log cannot hold a
    gap or a duplicate.  Indexing and iteration build :class:`ModEvent`
    records from the two images on demand.

    Truncation: long-lived coordinators register every
    :class:`~repro.ivm.delta.DeltaTable` over this log as a *subscriber*
    (weakly referenced -- a garbage-collected reader never pins history).
    :meth:`truncate` drops leading whole chunks once every live
    subscriber's ``applied_lsn`` has passed them; LSN addressing is
    preserved via a base offset, and reads below the truncation point
    raise.
    """

    __slots__ = ("_olds", "_news", "_chunk_size", "_length", "_base",
                 "_subscribers", "__weakref__")

    #: Modifications per chunk.  Large enough that chunk bookkeeping is
    #: noise, small enough that a truncation pass has useful granularity.
    DEFAULT_CHUNK_SIZE = 4096

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        #: Chunks of before-images and of after-images, position for
        #: position the same shape.
        self._olds: list[list[tuple | None]] = []
        self._news: list[list[tuple | None]] = []
        self._chunk_size = chunk_size
        self._length = 0
        #: Modifications dropped from the front by truncation (always a
        #: whole number of chunks, so chunk alignment never shifts).
        self._base = 0
        #: Live readers exposing ``applied_lsn``; weakly held.
        self._subscribers: weakref.WeakSet = weakref.WeakSet()

    def __len__(self) -> int:
        """Logical length: the highest LSN ever appended (truncation does
        not rewind it -- LSN addressing is stable for the log's lifetime)."""
        return self._length

    def __iter__(self) -> Iterator[ModEvent]:
        """Iterate the *retained* events (everything not yet truncated)."""
        return map(
            _event,
            range(self._base + 1, self._length + 1),
            chain.from_iterable(self._olds),
            chain.from_iterable(self._news),
        )

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

    def truncate(self) -> int:
        """Drop leading whole chunks at or below
        :meth:`safe_truncation_lsn` -- never history a live subscriber
        still needs.  Only whole chunks are released (the offset
        arithmetic stays chunk-aligned); returns the number of events
        dropped.
        """
        upto = self.safe_truncation_lsn()
        dropped = 0
        cs = self._chunk_size
        while (
            self._olds
            and len(self._olds[0]) == cs
            and self._base + cs <= upto
        ):
            del self._olds[0]
            del self._news[0]
            self._base += cs
            dropped += cs
        return dropped

    # -- storage -------------------------------------------------------

    def extend(
        self, olds: Sequence[tuple | None], news: Sequence[tuple | None]
    ) -> None:
        """Append a batch: modification ``i`` of it gets the next LSN but
        ``i``, and turned ``olds[i]`` into ``news[i]``."""
        count = len(olds)
        if len(news) != count:
            raise ExecutionError(
                f"a log batch needs one after-image per before-image, "
                f"got {count} and {len(news)}"
            )
        if None in olds and None in news and (None, None) in zip(olds, news):
            raise ExecutionError(
                "a modification needs a before-image or an after-image"
            )
        old_chunks, new_chunks, cs = self._olds, self._news, self._chunk_size
        if old_chunks and count <= cs - len(old_chunks[-1]):
            # The whole batch fits the tail chunk: no slicing.
            old_chunks[-1] += olds
            new_chunks[-1] += news
        else:
            done = 0
            while done < count:
                if not old_chunks or len(old_chunks[-1]) >= cs:
                    old_chunks.append([])
                    new_chunks.append([])
                upto = done + cs - len(old_chunks[-1])
                old_chunks[-1] += olds[done:upto]
                new_chunks[-1] += news[done:upto]
                done = upto
        self._length += count

    def append(self, event: ModEvent) -> None:
        """Append one event, which must be the one for the next LSN and be
        of the kind its images say (enforces the density invariant)."""
        if event.lsn != self._length + 1:
            raise ExecutionError(
                f"modification log expects LSN {self._length + 1}, "
                f"got {event.lsn}; the log must stay LSN-dense"
            )
        if event.kind != _kind(event.old_values, event.new_values):
            raise ExecutionError(
                f"{event.kind!r} event at LSN {event.lsn} carries the "
                f"images of a {_kind(event.old_values, event.new_values)}"
            )
        self.extend([event.old_values], [event.new_values])

    def columns(
        self, lsn_from: int, lsn_to: int
    ) -> tuple[list[tuple | None], list[tuple | None]]:
        """Before- and after-images of the modifications with
        ``lsn_from < lsn <= lsn_to``, oldest first, as two new lists.

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
            return [], []
        cs = self._chunk_size
        lo, hi = lsn_from - self._base, lsn_to - self._base - 1
        span = lo // cs, hi // cs, lo % cs, hi % cs + 1
        return _cut(self._olds, *span), _cut(self._news, *span)

    def __getitem__(self, position: int) -> ModEvent:
        """The event at zero-based log position (= LSN - 1)."""
        if not 0 <= position < self._length:
            raise IndexError(f"log position {position} outside [0, {self._length})")
        if position < self._base:
            raise IndexError(
                f"log position {position} below truncation point {self._base}"
            )
        chunk, offset = divmod(position - self._base, self._chunk_size)
        return _event(
            position + 1, self._olds[chunk][offset], self._news[chunk][offset]
        )

    def __repr__(self) -> str:
        return (
            f"ModLog(events={self._length}, chunks={len(self._olds)}, "
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
        #: The most recent snapshot handed out (at most one per table).
        self._retained: Snapshot | None = None
        #: column -> key -> every stored version with that key, in slot
        #: order (:meth:`versions_by_key`).
        self._key_maps: dict[str, dict[Hashable, list[RowVersion]]] = {}

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

    def create_index(self, column: str, name: str | None = None) -> Index:
        """Declare an index on ``column``.

        Charges one ``index_maintains`` per stored version, the backfill an
        index stands for, and builds the column's key map
        (:meth:`versions_by_key`) here, so that work is set-up too.
        """
        index_name = name or f"{self.name}_{column}_idx"
        if index_name in self.indexes:
            raise SchemaError(f"index {index_name!r} already exists")
        self.versions_by_key(column)
        self.counter.charge("index_maintains", len(self._versions))
        index = self.indexes[index_name] = Index(index_name, column)
        return index

    def index_on(self, column: str) -> Index | None:
        """The first index declared on ``column``, else None."""
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    def versions_by_key(self, column: str) -> dict[Hashable, list[RowVersion]]:
        """Every stored version, live and dead, grouped by its ``column``
        value, each group in slot (version) order.

        The one key -> versions structure: every
        :class:`~repro.engine.snapshot.KeyedRows` -- an index probe's or a
        hash join's -- derives its buckets from it.  Nothing charges for
        it; an index is a declaration (:meth:`create_index`) that decides
        what is charged and which join the planner picks.  Made by one pass
        over the versions the first time a column is asked for and
        extended by every write.  Callers must not mutate it.
        """
        key_map = self._key_maps.get(column)
        if key_map is None:
            pos = self.schema.position(column)  # before a map is stored
            key_map = self._key_maps[column] = {}
            _group(key_map, pos, self._versions)
        return key_map

    # ------------------------------------------------------------------
    # Modifications (each takes the next LSN and one position of the log)
    # ------------------------------------------------------------------
    #
    # One write path: a batch method validates every value, puts its
    # versions in place row by row, and hands the two image columns to
    # :meth:`_commit`; a single-row method is its batch of one.  A bad
    # value or width therefore changes nothing.  A row id that is out of
    # range or not live at its turn raises after the rows before it were
    # written -- versions, ``live_count``, key maps, LSN, log and counter
    # all at that prefix, as if each had been a call of its own.

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> range:
        """Insert a batch of rows; returns the LSNs it took, one a row."""
        news = self.schema.validate_rows(rows)
        lsn = self._lsn
        self._versions.extend(
            map(RowVersion, news, range(lsn + 1, lsn + len(news) + 1))
        )
        return self._commit([None] * len(news), news)

    def delete_rids(self, rids: Iterable[int]) -> range:
        """Delete the live versions at slots ``rids``, in order."""
        olds: list[tuple] = []
        lsn = self._lsn
        try:
            for rid in rids:
                version = self._version_live(rid)
                lsn += 1
                version.xmax = lsn
                olds.append(version.values)
        finally:
            lsns = self._commit(olds, [None] * len(olds))
        return lsns

    def update_rids(
        self, rids: Sequence[int], changes: Mapping[str, Sequence[Any]]
    ) -> range:
        """Update columns of the live versions at slots ``rids``, in order:
        row ``i`` gets ``changes[column][i]`` in each changed column.

        Each is recorded as delete-plus-insert under one LSN, so snapshots
        see the row atomically flip from old to new values.  The version
        an update creates takes the next free slot, so a later entry of
        ``rids`` may name it.
        """
        if not changes:
            raise ExecutionError("update with no changed columns")
        schema = self.schema
        count = len(rids)
        setters = []  # (position in the row, the column's new values)
        for column, values in changes.items():
            pos = schema.position(column)
            if len(values) != count:
                raise ExecutionError(
                    f"update of {count} rows got {len(values)} values "
                    f"for {column!r}"
                )
            setters.append(
                (pos, schema.columns[pos].type.validate_column(values))
            )
        olds: list[tuple] = []
        news: list[tuple] = []
        versions = self._versions
        lsn = self._lsn
        try:
            for i, rid in enumerate(rids):
                version = self._version_live(rid)
                lsn += 1
                old = version.values
                row = list(old)
                for pos, values in setters:
                    row[pos] = values[i]
                new = tuple(row)
                version.xmax = lsn
                versions.append(RowVersion(new, lsn))
                olds.append(old)
                news.append(new)
        finally:
            lsns = self._commit(olds, news)
        return lsns

    def _commit(
        self, olds: list[tuple | None], news: list[tuple | None]
    ) -> range:
        """The tail every write shares: take the LSNs, charge, extend the
        key maps and log a batch whose versions are already in place.

        The versions the batch created are the heap's last, in batch
        order.  Charges are per batch and equal to the sum over its rows:
        one ``row_writes`` and one ``index_maintains`` per index for each
        image written (an update writes two).
        """
        count = len(olds)
        first = self._lsn + 1
        if not count:
            return range(first, first)
        deleted = count - olds.count(None)
        created = count - news.count(None)
        writes = deleted + created
        self._lsn += count
        self._live_count += created - deleted
        charge = self.counter.charge
        charge("row_writes", writes)
        if self.indexes:
            # Both images of every modification cost index maintenance,
            # though the key maps below only gain the new versions: dead
            # ones stay and readers filter them by visibility.
            charge("index_maintains", writes * len(self.indexes))
        if self._key_maps and created:
            versions = self._versions[-created:]
            for column, key_map in self._key_maps.items():
                _group(key_map, self.schema.position(column), versions)
        self.history.extend(olds, news)
        obs.counter("engine.table.write_batches")
        obs.counter("engine.table.rows_written", count)
        return range(first, first + count)

    def insert(self, values: Sequence[Any]) -> ModEvent:
        """Insert one row; returns the logged event."""
        return self.history[self.insert_rows([values])[0] - 1]

    def update_rid(self, rid: int, changes: Mapping[str, Any]) -> ModEvent:
        """Update columns of the live version at slot ``rid``."""
        lsns = self.update_rids(
            [rid], {column: [value] for column, value in changes.items()}
        )
        return self.history[lsns[0] - 1]

    def live_rids(self) -> list[int]:
        """Row ids of the live versions, ascending (no cost charged)."""
        return [
            rid for rid, v in enumerate(self._versions) if v.xmax is None
        ]

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
        keyed maps), and a snapshot at a later LSN rolls its keyed maps
        forward through :attr:`history` instead of re-deriving them.
        """
        at = self._lsn if lsn is None else lsn
        if at < 0 or at > self._lsn:
            raise ExecutionError(
                f"snapshot LSN {at} outside [0, {self._lsn}] for {self.name}"
            )
        retained = self._retained
        if retained is not None and retained.lsn == at:
            obs.counter("engine.snapshot.reused")
            return retained
        self._retained = Snapshot(self, at, retained)
        return self._retained

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
