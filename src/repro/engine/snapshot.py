"""Point-in-time reads over versioned tables.

A :class:`Snapshot` is a lightweight view of a table *as of* a particular
LSN.  It does not copy data; it filters row versions by visibility.  All
physical operators read through snapshots, which is what lets incremental
view maintenance join a delta batch against base tables at exactly the
state the view has incorporated (see :mod:`repro.engine.table` for why).

Snapshots outlive the query that asked for them: a table retains the most
recent one it handed out (:meth:`Table.snapshot
<repro.engine.table.Table.snapshot>`), hands it out again for the same LSN,
and a snapshot at a later LSN inherits the retained one's row count and
hash-join build sides by replaying the ``ModLog`` window between the two
LSNs instead of re-scanning the table.  What a snapshot reads never
changes after it is handed out -- rolling forward copies every bucket it
touches.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterator, Sequence

from repro import obs

if TYPE_CHECKING:  # circular import guard; Table imports Snapshot
    from repro.engine.table import Table


def _replayed(
    side: dict, pos: int, olds: Sequence, news: Sequence
) -> dict | None:
    """``side`` advanced through a log window, leaving ``side`` untouched.

    ``olds`` / ``news`` are the window's two columns
    (:meth:`ModLog.columns <repro.engine.table.ModLog.columns>`).  A
    deleted row leaves its bucket and an inserted one is appended (the
    new version is the table's last, so the bucket stays in version
    order); an update does both.  Buckets are copied the first time they
    are touched and emptied ones are dropped, so the result equals a
    build from the later snapshot's ``row_list()``.

    Returns None when a removal is ambiguous: the log carries values, not
    row ids, so when the bucket holds the removed row's values twice the
    replay cannot tell which position the dead version held.
    """
    out = dict(side)
    owned = set()
    for old, new in zip(olds, news):
        if old is not None:
            key = old[pos]
            bucket = out[key]
            if key not in owned:
                bucket = out[key] = list(bucket)
                owned.add(key)
            bucket.remove(old)
            if old in bucket:
                return None
            if not bucket:
                del out[key]
                owned.discard(key)
        if new is not None:
            key = new[pos]
            if key in owned:
                out[key].append(new)
            else:
                out[key] = [*out.get(key, ()), new]
                owned.add(key)
    return out


class Snapshot:
    """A read-only view of ``table`` at modification LSN ``lsn``.

    ``retained`` is the snapshot the table handed out before this one;
    whatever it had derived that can be rolled forward to ``lsn`` is.
    """

    def __init__(
        self, table: "Table", lsn: int, retained: "Snapshot | None" = None
    ):
        self.table = table
        self.lsn = lsn
        self._count: int | None = None
        self._visible: list[tuple] | None = None
        #: column -> its values over ``_visible``, in row order (scans).
        self._columns: dict[str, list] = {}
        #: column -> key -> visible rows with that key (index probes).
        self._lookup_cache: dict[str, dict[Hashable, list[tuple]]] = {}
        #: column -> key -> visible rows in version order (hash-join builds).
        self._build_sides: dict[str, dict[Hashable, list[tuple]]] = {}
        if retained is not None:
            self._roll_forward(retained)

    def _roll_forward(self, retained: "Snapshot") -> None:
        """Inherit ``retained``'s count and build sides through the ModLog.

        Nothing is inherited -- and :meth:`build_side` builds from
        :meth:`row_list` -- when ``retained`` is at a later LSN, when the
        log window between the two was truncated, or when the window is
        longer than the table (replaying it would cost more than the
        build).  A build side with an ambiguous removal is dropped alone.
        """
        sides = retained._build_sides
        span = self.lsn - retained.lsn
        if (
            not sides
            or span < 0
            or retained.lsn < self.table.history.truncated_lsn
            or span > retained._count
        ):
            return
        olds, news = self.table.history.columns(retained.lsn, self.lsn)
        # An insert has no before-image, a delete no after-image.
        self._count = retained._count + olds.count(None) - news.count(None)
        schema = self.table.schema
        for column, side in sides.items():
            rolled = _replayed(side, schema.position(column), olds, news)
            if rolled is not None:
                self._build_sides[column] = rolled
        obs.counter(
            "engine.snapshot.rolled_events", span * len(self._build_sides)
        )

    @property
    def schema(self):
        """The underlying table's schema."""
        return self.table.schema

    @property
    def name(self) -> str:
        """The underlying table's name."""
        return self.table.name

    def rows(self) -> Iterator[tuple]:
        """Iterate rows visible at this snapshot (no cost charged here;
        operators charge scans)."""
        return iter(self.row_list())

    def row_list(self) -> list[tuple]:
        """All visible rows, materialized once and kept with the snapshot.

        The visibility predicate at a fixed LSN is immutable even as the
        table keeps mutating (later inserts have ``xmin > lsn``; later
        deletes set ``xmax > lsn``, leaving visibility here unchanged), so
        one pass over the versions serves every reader of this snapshot --
        every downstream pull of one query, and every later query the
        table hands this snapshot to again.  Callers must not mutate the
        returned list.
        """
        if self._visible is None:
            lsn = self.lsn
            self._visible = [
                v.values
                for v in self.table._versions
                if v.xmin <= lsn and (v.xmax is None or v.xmax > lsn)
            ]
            self._count = len(self._visible)
        return self._visible

    def column(self, column: str) -> list:
        """One column of :meth:`row_list`, in row order.

        Extracted the first time a plan reads the column and kept with the
        snapshot like the row list itself, so a scan hands out slices of
        it and a column no plan reads costs nothing.  Callers must not
        mutate the returned list.
        """
        values = self._columns.get(column)
        if values is None:
            pos = self.schema.position(column)
            values = self._columns[column] = list(
                map(itemgetter(pos), self.row_list())
            )
        return values

    def count(self) -> int:
        """Number of visible rows (rolled forward, or counted once)."""
        if self._count is None:
            self.row_list()
        return self._count

    def build_side(self, column: str) -> dict[Hashable, list[tuple]]:
        """The hash-join table on ``column``: key -> visible rows, in
        version order.

        Either inherited from the table's previously retained snapshot
        (see :meth:`_roll_forward`) or built here from :meth:`row_list`;
        kept with the snapshot either way.  Callers must not mutate it.
        """
        side = self._build_sides.get(column)
        if side is None:
            pos = self.schema.position(column)
            side = self._build_sides[column] = {}
            for row in self.row_list():
                side.setdefault(row[pos], []).append(row)
        return side

    def probe_cache(self, column: str) -> dict[Hashable, list[tuple]]:
        """Index-probe results on ``column`` found so far, by key.

        Join operators fetch this once and probe it with the bare key,
        calling :meth:`lookup` (which fills it) only on a miss.
        """
        cache = self._lookup_cache.get(column)
        if cache is None:
            cache = self._lookup_cache[column] = {}
        return cache

    def lookup(self, column: str, key: Hashable) -> list[tuple]:
        """Visible rows with ``column == key`` via an index, if one exists.

        Raises ``LookupError`` if no index covers ``column``; operators use
        :meth:`has_index` to decide between index and scan access paths.
        """
        cache = self.probe_cache(column)
        cached = cache.get(key)
        if cached is not None:
            return cached
        index = self.table.index_on(column)
        if index is None:
            raise LookupError(f"no index on {self.name}.{column}")
        out = []
        for rid in index.lookup(key):
            version = self.table.version(rid)
            if version.visible_at(self.lsn):
                out.append(version.values)
        # Visibility at a fixed LSN never changes, so the probe result is a
        # pure function of (column, key) -- kept for as long as the
        # snapshot is, across queries.  Callers must not mutate the
        # returned list.
        cache[key] = out
        return out

    def has_index(self, column: str) -> bool:
        """Whether an index-assisted lookup on ``column`` is available.

        Indexes are version-aware (dead versions stay indexed and are
        filtered by visibility), so index access works at any snapshot LSN.
        """
        return self.table.index_on(column) is not None

    def __repr__(self) -> str:
        return f"Snapshot({self.name!r}, lsn={self.lsn})"
