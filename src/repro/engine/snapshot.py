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
keyed maps (:class:`KeyedRows`, one per column a join has read by key)
instead of re-reading the table: the keys the ``ModLog`` window between
the two LSNs touched are dropped, and a probe that asks for one derives
it from the table's key map.  What a snapshot reads never changes after
it is handed out.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from repro import obs

if TYPE_CHECKING:  # circular import guard; Table imports Snapshot
    from repro.engine.table import RowVersion, Table


def _visible_values(lsn: int, versions: Iterable["RowVersion"]) -> list[tuple]:
    """The values of ``versions`` visible at ``lsn``, in the order given.

    The one visibility filter: a version is visible when ``xmin <= lsn <
    xmax`` (a live version has no ``xmax``).  At a fixed LSN the answer
    never changes as the table keeps mutating -- later inserts have ``xmin
    > lsn``, later deletes set ``xmax > lsn`` -- so each caller keeps what
    it read.
    """
    return [
        v.values
        for v in versions
        if v.xmin <= lsn and (v.xmax is None or v.xmax > lsn)
    ]


class KeyedRows(dict):
    """One column of a snapshot by key: key -> the rows visible at the
    snapshot's LSN with that key, in version order.

    What both joins read: an index-nested-loop join probes it once per
    outer row, and a hash join over a table scan takes it as its build
    side.  It starts empty, or with the buckets of the retained snapshot's
    map that the log window did not touch (shared, not copied).  The first
    probe for a key it lacks derives that bucket -- the key's versions in
    the table's :meth:`~repro.engine.table.Table.versions_by_key` map,
    filtered by visibility -- and keeps it; a key with no visible rows
    answers an empty list.  Probe with ``rows[key]``, not ``get``, which
    would skip the derivation.  Callers must not mutate it.
    """

    __slots__ = ("_table", "_lsn", "_column")

    def __init__(
        self,
        table: "Table",
        lsn: int,
        column: str,
        buckets: dict[Hashable, list[tuple]] | None = None,
    ):
        super().__init__(buckets or ())
        self._table = table
        self._lsn = lsn
        self._column = column

    def __missing__(self, key: Hashable) -> list[tuple]:
        versions = self._table.versions_by_key(self._column).get(key, ())
        rows = self[key] = _visible_values(self._lsn, versions)
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
        #: column -> its :class:`KeyedRows` (index probes, hash-join builds).
        self._keyed: dict[str, KeyedRows] = {}
        if retained is not None:
            self._roll_forward(retained)

    def _roll_forward(self, retained: "Snapshot") -> None:
        """Inherit ``retained``'s count and keyed maps through the ModLog.

        One pass over the window's two image columns: the count, if
        ``retained`` knew it, moves by the window's inserts and deletes,
        and each keyed map is copied without the keys the window touched,
        which a probe then derives.  Nothing is inherited -- every map
        starts empty -- when ``retained`` is at a later LSN, when the log
        window between the two was truncated, or when the window is longer
        than the table (it would leave little to share).
        """
        table = self.table
        count = retained._count
        span = self.lsn - retained.lsn
        if (
            (count is None and not retained._keyed)
            or span < 0
            or retained.lsn < table.history.truncated_lsn
            or span > table.live_count
        ):
            return
        olds, news = table.history.columns(retained.lsn, self.lsn)
        if count is not None:
            # An insert has no before-image, a delete no after-image.
            self._count = count + olds.count(None) - news.count(None)
        for column, keyed in retained._keyed.items():
            rolled = self._keyed[column] = KeyedRows(
                table, self.lsn, column, keyed
            )
            images = filter(None, chain(olds, news))
            pos = table.schema.position(column)
            for key in set(map(itemgetter(pos), images)):
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
            self._visible = _visible_values(self.lsn, self.table._versions)
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

    def keyed(self, column: str) -> KeyedRows:
        """This snapshot's :class:`KeyedRows` on ``column``, made empty the
        first time a join asks (unless rolled forward) and kept with the
        snapshot across queries: the one map both joins probe."""
        rows = self._keyed.get(column)
        if rows is None:
            self.schema.position(column)  # raises before a map is kept
            rows = self._keyed[column] = KeyedRows(self.table, self.lsn, column)
        return rows

    def lookup(self, column: str, key: Hashable) -> list[tuple]:
        """Visible rows with ``column == key``, through the index on it.

        Raises ``LookupError`` if no index covers ``column``; operators use
        :meth:`has_index` to decide between index and scan access paths.
        A key with no rows, of any type, answers ``[]``.  The answer is
        :meth:`keyed`'s bucket, kept as long as the snapshot is.  Callers
        must not mutate the returned list.
        """
        if not self.has_index(column):
            raise LookupError(f"no index on {self.name}.{column}")
        return self.keyed(column)[key]

    def has_index(self, column: str) -> bool:
        """Whether an index-assisted lookup on ``column`` is available.

        An index reads the table's key map of every stored version, filtered
        by visibility, so index access works at any snapshot LSN.
        """
        return self.table.index_on(column) is not None

    def __repr__(self) -> str:
        return f"Snapshot({self.name!r}, lsn={self.lsn})"
