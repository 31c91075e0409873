"""Chunked execution: the :class:`RowBlock` unit of the engine's pipeline.

Moving one Python tuple at a time through a chain of generator frames
pays a frame switch, an attribute lookup, and an
:class:`~repro.engine.costmodel.OperationCounter` call *per row per
operator*.  A :class:`RowBlock` moves a fixed-size chunk of rows instead:
operators process whole blocks with C-speed bulk primitives (``zip``,
``map``, list comprehensions) and charge the cost counter once per block.
The totals charged depend only on the rows, so the simulated page/CPU
costs are **bit-identical** at every block size (block size 1 is
row-at-a-time execution); ``tests/integration/test_block_equivalence.py``
enforces that invariant against the frozen results of the row engine
this pipeline replaced.

Layout convention: a block carries the same
``{qualified column name: position}`` layout its operator exposes, and the
logical content is the ordered multiset of row tuples.  Storage is
column-major (one Python list per column) from source to sink: a scan
slices the snapshot's retained columns, expression evaluation
(:meth:`~repro.engine.expr.Expression.compile_block`) pulls a whole column
without touching individual rows, and filters, joins and projections
assemble their output one kept column at a time, reusing column lists
without copying wherever nothing was dropped.  Row tuples exist at the
two ends only: a substituted delta batch arrives as rows and is handed
through by reference (:meth:`RowBlock.column` extracts just the columns
somebody asks for), and the row-major view of a result is one C-level
``zip`` transpose at the sink.

Blocks are immutable by convention: operators must never mutate a block's
column lists after handing the block downstream (projection and filter
fast paths share them zero-copy).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

#: Default rows per block.  Charges do not depend on it
#: (``tests/integration/test_block_equivalence.py``); wall-clock does, and
#: the ``query_scan`` harness workload and every count in ``pins.json``
#: were recorded at 256, so a change of default is a harness claim.
DEFAULT_BLOCK_SIZE = 256


class RowBlock:
    """A chunk of rows in column-major layout.

    ``columns[pos]`` is the list of values of the column at tuple position
    ``pos``; ``layout`` maps qualified column names to positions, exactly
    as on the operator that produced the block.
    """

    __slots__ = ("layout", "_columns", "_rows", "_length", "_col_cache")

    def __init__(
        self,
        columns: Sequence[list] | None,
        layout: Mapping[str, int],
        rows: list[tuple] | None = None,
        length: int | None = None,
    ):
        self.layout = layout
        self._columns = list(columns) if columns is not None else None
        self._rows = rows
        self._col_cache: dict[int, list] | None = None
        if length is not None:
            self._length = length
        elif rows is not None:
            self._length = len(rows)
        elif self._columns:
            self._length = len(self._columns[0])
        else:
            self._length = 0

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[tuple], layout: Mapping[str, int]) -> "RowBlock":
        """Wrap an ordered list of row tuples (kept by reference)."""
        return cls(None, layout, rows=rows)

    @classmethod
    def from_columns(
        cls, columns: Sequence[list], layout: Mapping[str, int], length: int | None = None
    ) -> "RowBlock":
        """Wrap column lists (kept by reference -- zero copy)."""
        return cls(columns, layout, length=length)

    # -- views ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def rows(self) -> list[tuple]:
        """The row-major view (lazily transposed once, then cached)."""
        if self._rows is None:
            assert self._columns is not None
            if self._columns:
                self._rows = list(zip(*self._columns))
            else:  # a block that kept no column still has its rows
                self._rows = [()] * self._length
        return self._rows

    def column(self, pos: int) -> list:
        """One column's values (lazily extracted once, then cached).

        For a row-major block, only the requested column is materialized
        (one list comprehension), not a full transpose -- joins typically
        touch a single key column of a wide block.  Returns an internal
        list; callers must not mutate it.
        """
        if self._columns is not None:
            return self._columns[pos]
        cache = self._col_cache
        if cache is None:
            cache = self._col_cache = {}
        col = cache.get(pos)
        if col is None:
            assert self._rows is not None
            col = cache[pos] = [row[pos] for row in self._rows]
        return col

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __repr__(self) -> str:
        return f"RowBlock(rows={self._length}, width={len(self.layout)})"


def block_bounds(length: int, block_size: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each chunk of at most ``block_size`` out of
    ``length`` rows; an empty input has no chunks."""
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    for start in range(0, length, block_size):
        yield start, min(start + block_size, length)


def iter_blocks(
    rows: Sequence[tuple], layout: Mapping[str, int], block_size: int
) -> Iterator[RowBlock]:
    """Chunk an in-memory row list into row-major blocks.

    Slices share the underlying row tuples (no per-row copying); empty
    inputs produce no blocks.
    """
    for start, stop in block_bounds(len(rows), block_size):
        yield RowBlock.from_rows(list(rows[start:stop]), layout)


def blocks_to_rows(blocks: Iterable[RowBlock]) -> list[tuple]:
    """Flatten a block stream back into one ordered row list."""
    out: list[tuple] = []
    for block in blocks:
        out.extend(block.rows())
    return out
