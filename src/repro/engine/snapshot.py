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
hash-join build sides instead of re-scanning the table: the buckets the
``ModLog`` window between the two LSNs touched are dropped, and a probe
that asks for one derives it from the table's key map.  What a snapshot
reads never changes after it is handed out.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from repro import obs

if TYPE_CHECKING:  # circular import guard; Table imports Snapshot
    from repro.engine.table import RowVersion, Table


def _visible_values(
    table: "Table", lsn: int, versions: Iterable["RowVersion"]
) -> list[tuple]:
    """The values of ``versions`` visible at ``lsn``, in the order given.

    The one visibility filter: a version is visible when ``xmin <= lsn <
    xmax`` (a live version has no ``xmax``).  At a fixed LSN the answer
    never changes as the table keeps mutating -- later inserts have ``xmin
    > lsn``, later deletes set ``xmax > lsn`` -- so each caller keeps what
    it read.  Every read a snapshot does not hold yet comes through here,
    which is what makes one below the table's vacuum watermark raise
    instead of answering with versions missing.
    """
    table.check_readable(lsn)
    return [
        v.values
        for v in versions
        if v.xmin <= lsn and (v.xmax is None or v.xmax > lsn)
    ]


class BuildSide(dict):
    """A hash-join table: key -> the rows with that key, in version order.

    A key it lacks has no rows, so probe with ``side[key]`` (which answers
    ``()`` for it) rather than ``side.get``, which would skip a rolled
    side's derivation.  Callers must not mutate it.
    """

    __slots__ = ()

    def __missing__(self, key: Hashable) -> tuple:
        return ()


class _RolledSide(BuildSide):
    """A build side inherited through a log window.

    It holds the retained side's buckets minus every key the window
    touched; the first probe for a key it lacks derives that bucket --
    the key's versions visible at ``lsn``, from the table's
    :meth:`~repro.engine.table.Table.versions_by_key` map -- and keeps it.
    Untouched buckets are shared with the side it was rolled from.
    """

    __slots__ = ("_table", "_lsn", "_column")

    def __init__(self, side: BuildSide, table: "Table", lsn: int, column: str):
        super().__init__(side)
        self._table = table
        self._lsn = lsn
        self._column = column

    def __missing__(self, key: Hashable) -> list[tuple] | tuple:
        table = self._table
        versions = table.versions_by_key(self._column).get(key, ())
        # A key with no visible rows keeps the answer a built side gives.
        rows = self[key] = _visible_values(table, self._lsn, versions) or ()
        obs.counter("engine.snapshot.derived_keys")
        return rows


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
        self._build_sides: dict[str, BuildSide] = {}
        if retained is not None:
            self._roll_forward(retained)

    def _roll_forward(self, retained: "Snapshot") -> None:
        """Inherit ``retained``'s count and build sides through the ModLog.

        One pass over the window's two image columns: the count moves by
        its inserts and deletes, and each build side is copied without the
        keys the window touched, which :class:`_RolledSide` derives when a
        probe asks.  Nothing is inherited -- and :meth:`build_side` builds
        from :meth:`row_list` -- when ``retained`` is at a later LSN, when
        the log window between the two was truncated, or when the window
        is longer than the table (it would leave little to share).
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
            rolled = self._build_sides[column] = _RolledSide(
                side, self.table, self.lsn, column
            )
            images = filter(None, chain(olds, news))
            for key in set(map(itemgetter(schema.position(column)), images)):
                rolled.pop(key, None)

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

        One pass over the versions serves every reader of this snapshot --
        every downstream pull of one query, and every later query the
        table hands this snapshot to again.  Callers must not mutate the
        returned list.
        """
        if self._visible is None:
            self._visible = _visible_values(
                self.table, self.lsn, self.table._versions
            )
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

    def build_side(self, column: str) -> BuildSide:
        """The hash-join table on ``column``: key -> visible rows, in
        version order.

        Either inherited from the table's previously retained snapshot
        (see :meth:`_roll_forward`) or built here from :meth:`row_list`;
        kept with the snapshot either way.  Probe it with ``side[key]``.
        """
        side = self._build_sides.get(column)
        if side is None:
            pos = self.schema.position(column)
            side = self._build_sides[column] = BuildSide()
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
        The result is kept for as long as the snapshot is, across queries.
        Callers must not mutate the returned list.
        """
        cache = self.probe_cache(column)
        cached = cache.get(key)
        if cached is not None:
            return cached
        index = self.table.index_on(column)
        if index is None:
            raise LookupError(f"no index on {self.name}.{column}")
        versions = map(self.table._versions.__getitem__, index.lookup(key))
        out = cache[key] = _visible_values(self.table, self.lsn, versions)
        return out

    def has_index(self, column: str) -> bool:
        """Whether an index-assisted lookup on ``column`` is available.

        Indexes are version-aware (dead versions stay indexed and are
        filtered by visibility), so index access works at any snapshot LSN.
        """
        return self.table.index_on(column) is not None

    def __repr__(self) -> str:
        return f"Snapshot({self.name!r}, lsn={self.lsn})"
