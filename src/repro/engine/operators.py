"""Physical operators: scans, filters, projections.

Operators follow a simple pull model: each exposes ``layout`` (a mapping
from qualified column name to position in the tuples it produces, listed
in position order) and implements :meth:`Operator.blocks`, which streams
its output as :class:`~repro.engine.block.RowBlock` batches.  An operator
charges the shared :class:`~repro.engine.costmodel.OperationCounter` once
per block; the totals -- the simulated cost, which is the experiment
observable -- depend only on the rows, never on the block size nor on how
many columns a block carries.

Column pruning: every operator that assembles a new block (scan, filter,
joins) takes ``keep``, the qualified columns the rest of the plan still
reads, and emits only those; ``None`` keeps everything.  The planner
(:meth:`Database._plan <repro.engine.database.Database>`) works
the lists out from the query; nothing is charged for a column dropped or
kept.

Joins and aggregation live in their own modules
(:mod:`repro.engine.join`, :mod:`repro.engine.aggregate`).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Mapping, Sequence

from repro import obs
from repro.engine.block import (
    DEFAULT_BLOCK_SIZE,
    RowBlock,
    block_bounds,
    blocks_to_rows,
    iter_blocks,
)
from repro.engine.costmodel import ROWS_PER_PAGE, OperationCounter
from repro.engine.errors import SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.snapshot import Snapshot


class Operator:
    """Base class: a stream of row blocks with a named layout."""

    layout: Mapping[str, int]
    counter: OperationCounter

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        """Stream the operator's output in blocks of about ``block_size``
        rows (a join emits one block per input block, whatever its
        fan-out)."""
        raise NotImplementedError

    def rows(self) -> list[tuple]:
        """Materialize the operator's full output."""
        return blocks_to_rows(self.blocks(DEFAULT_BLOCK_SIZE))


class SeqScan(Operator):
    """Full scan of a snapshot, tagging columns with an alias.

    Charges one page read per :data:`~repro.engine.costmodel.ROWS_PER_PAGE`
    visible rows plus per-tuple CPU -- the 'no index, read everything'
    access path whose cost is what makes un-indexed delta processing
    expensive in the paper's Figure 1.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        alias: str,
        counter: OperationCounter,
        keep: Sequence[str] | None = None,
    ):
        self.snapshot = snapshot
        self.alias = alias
        self.counter = counter
        qualified = {f"{alias}.{name}": name for name in snapshot.schema.names}
        if keep is None:
            keep = qualified
        self.layout = {name: pos for pos, name in enumerate(keep)}
        try:
            self._columns = [qualified[name] for name in keep]
        except KeyError as exc:
            raise SchemaError(
                f"scan of {snapshot.name} AS {alias} has no column {exc}"
            ) from None

    def _charge_scan_setup(self) -> int:
        rows = self.snapshot.count()
        self.counter.charge_pages(rows)
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("engine.scan.scans")
            recorder.counter("engine.scan.rows_out", rows)
            recorder.counter(
                "engine.scan.pages", -(-rows // ROWS_PER_PAGE) if rows else 0
            )
        return rows

    def charge_full_scan(self) -> int:
        """Charge the whole scan (pages, then CPU for every tuple) without
        producing a row; returns the row count.  For a consumer that takes
        the scanned rows from the snapshot itself (a hash-join build)."""
        rows = self._charge_scan_setup()
        self.counter.charge("tuple_cpu", rows)
        return rows

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        rows = self._charge_scan_setup()
        charge = self.counter.charge
        layout = self.layout
        # Slices of the columns the snapshot retains: no row is touched.
        columns = [self.snapshot.column(name) for name in self._columns]
        for start, stop in block_bounds(rows, block_size):
            charge("tuple_cpu", stop - start)
            yield RowBlock.from_columns(
                [column[start:stop] for column in columns],
                layout,
                length=stop - start,
            )


class PrescannedRows(list):
    """Delta rows whose scan CPU was already charged once, upstream.

    The shared-scan coordinator (:mod:`repro.ivm.sharedscan`) splits a
    table's delta window into row batches exactly once per maintenance
    round, charging ``tuple_cpu`` for the split at that point.  Wrapping
    the rows in this marker tells :class:`RowSource` that the
    source-stage CPU is prepaid, so fanning the same batch to N
    subscribing views charges the scan once, not N times.  Behaves as a
    plain (read-only by convention) list everywhere else.
    """

    __slots__ = ()


class RowSource(Operator):
    """An in-memory relation (e.g. a delta batch) presented as an operator.

    No page reads are charged: delta rows arrive already in memory, exactly
    like the delta tables the paper appends modifications to.  A
    :class:`PrescannedRows` batch additionally skips the per-row
    ``tuple_cpu`` scan charge -- it was charged once by the shared scan
    that produced the batch.
    """

    def __init__(
        self,
        rows: Sequence[tuple],
        names: Sequence[str],
        alias: str,
        counter: OperationCounter,
    ):
        self.precharged = isinstance(rows, PrescannedRows)
        self._rows = rows if self.precharged else list(rows)
        self.alias = alias
        self.counter = counter
        self.layout = {f"{alias}.{n}": i for i, n in enumerate(names)}
        if len(self.layout) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        width = len(names)
        if set(map(len, self._rows)) - {width}:
            i, row = next(
                (i, row) for i, row in enumerate(self._rows) if len(row) != width
            )
            raise SchemaError(
                f"substituted row {i} for {alias!r} has {len(row)} "
                f"values, expected {width}"
            )

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        if self.precharged:
            # Scan CPU prepaid by the shared delta scan.
            yield from iter_blocks(self._rows, self.layout, block_size)
            return
        charge = self.counter.charge
        for block in iter_blocks(self._rows, self.layout, block_size):
            charge("tuple_cpu", len(block))
            yield block

    def __len__(self) -> int:
        return len(self._rows)


class Filter(Operator):
    """Select rows satisfying a compiled predicate."""

    def __init__(
        self,
        child: Operator,
        predicate: Expression,
        keep: Sequence[str] | None = None,
    ):
        self.child = child
        self.counter = child.counter
        self.predicate = predicate
        self._block_fn = predicate.compile_block(child.layout)
        if keep is None or tuple(keep) == tuple(child.layout):
            self.layout = child.layout  # nothing dropped
        else:
            self.layout = {name: pos for pos, name in enumerate(keep)}
        self._positions = [
            resolve_column(name, child.layout) for name in self.layout
        ]

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        block_fn = self._block_fn
        charge = self.counter.charge
        layout = self.layout
        positions = self._positions
        nothing_dropped = layout is self.child.layout
        for block in self.child.blocks(block_size):
            charge("compares", len(block))
            flags = block_fn(block)
            if all(flags):
                if nothing_dropped:
                    yield block  # handed through as it came
                    continue
                # Nothing filtered: the kept column lists go through
                # without copying a value.
                columns = [block.column(p) for p in positions]
            elif any(flags):
                columns = [list(compress(block.column(p), flags)) for p in positions]
            else:
                continue
            yield RowBlock.from_columns(
                columns,
                layout,
                length=len(columns[0]) if columns else sum(map(bool, flags)),
            )


class Project(Operator):
    """Keep (and reorder) a subset of columns."""

    def __init__(self, child: Operator, columns: Sequence[str]):
        self.child = child
        self.counter = child.counter
        self.columns = tuple(columns)
        positions = [resolve_column(name, child.layout) for name in columns]
        self._positions = positions
        self.layout = {name: i for i, name in enumerate(columns)}
        if len(self.layout) != len(columns):
            raise SchemaError(f"duplicate projection columns in {columns}")

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        positions = self._positions
        charge = self.counter.charge
        for block in self.child.blocks(block_size):
            charge("tuple_cpu", len(block))
            yield RowBlock.from_columns(
                [block.column(p) for p in positions],
                self.layout,
                length=len(block),
            )


def merged_layout(
    left: Mapping[str, int], right: Mapping[str, int]
) -> dict[str, int]:
    """Layout of a concatenated (left ++ right) row."""
    overlap = set(left) & set(right)
    if overlap:
        raise SchemaError(f"join sides share qualified columns {sorted(overlap)}")
    width = len(left)
    out = dict(left)
    for name, pos in right.items():
        out[name] = width + pos
    return out
