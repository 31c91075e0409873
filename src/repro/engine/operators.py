"""Physical operators: scans, filters, projections.

Operators follow a simple pull model with two equivalent surfaces: each
exposes ``layout`` (a mapping from qualified column name to position in
the tuples it produces) and is iterable row-at-a-time, and each also
implements :meth:`Operator.blocks` -- the chunked pipeline that moves
:class:`~repro.engine.block.RowBlock` batches instead of single tuples.
Both surfaces produce the same rows in the same order and charge the
shared :class:`~repro.engine.costmodel.OperationCounter` the **same
totals**; the blocked path simply charges per block instead of per row,
which is where its wall-clock advantage comes from (the simulated cost is
the experiment observable and must not move).

Joins and aggregation live in their own modules
(:mod:`repro.engine.join`, :mod:`repro.engine.aggregate`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.engine.block import RowBlock, iter_blocks
from repro.engine.costmodel import ROWS_PER_PAGE, OperationCounter
from repro.engine.errors import SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.snapshot import Snapshot


class Operator:
    """Base class: an iterable of row tuples with a named layout."""

    layout: Mapping[str, int]
    counter: OperationCounter
    #: Attribution node (:class:`repro.obs.attrib.ProfileNode`) set by
    #: ``attrib.attach_to_plan`` when the query is profiled; None (one
    #: attribute check per charge site) otherwise.  Attribution mirrors
    #: charges already made against ``counter`` -- it never adds any.
    _prof = None

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def rows(self) -> list[tuple]:
        """Materialize the operator's full output."""
        return list(self)

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        """Produce the same output as ``__iter__``, chunked into blocks.

        The fallback wraps the row iterator, so any operator subclass is
        block-capable (with row-granular charging); the engine's own
        operators override it with genuinely chunked implementations that
        charge the counter in bulk.
        """
        rows: list[tuple] = []
        for row in self:
            rows.append(row)
            if len(rows) >= block_size:
                yield RowBlock.from_rows(rows, self.layout)
                rows = []
        if rows:
            yield RowBlock.from_rows(rows, self.layout)


class SeqScan(Operator):
    """Full scan of a snapshot, tagging columns with an alias.

    Charges one page read per :data:`~repro.engine.costmodel.ROWS_PER_PAGE`
    visible rows plus per-tuple CPU -- the 'no index, read everything'
    access path whose cost is what makes un-indexed delta processing
    expensive in the paper's Figure 1.
    """

    def __init__(self, snapshot: Snapshot, alias: str, counter: OperationCounter):
        self.snapshot = snapshot
        self.alias = alias
        self.counter = counter
        self.layout = {
            f"{alias}.{name}": pos
            for pos, name in enumerate(snapshot.schema.names)
        }

    def _charge_scan_setup(self) -> int:
        rows = self.snapshot.count()
        self.counter.charge_pages(rows)
        if self._prof is not None and rows:
            self._prof.add("page_reads", -(-rows // ROWS_PER_PAGE))
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

    def __iter__(self) -> Iterator[tuple]:
        self._charge_scan_setup()
        for row in self.snapshot.rows():
            self.counter.charge("tuple_cpu")
            yield row

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        self._charge_scan_setup()
        charge = self.counter.charge
        prof = self._prof
        for block in iter_blocks(self.snapshot.row_list(), self.layout, block_size):
            charge("tuple_cpu", len(block))
            if prof is not None:
                prof.add("tuple_cpu", len(block))
            yield block


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
        for i, row in enumerate(self._rows):
            if len(row) != width:
                raise SchemaError(
                    f"substituted row {i} for {alias!r} has {len(row)} "
                    f"values, expected {width}"
                )

    def __iter__(self) -> Iterator[tuple]:
        if self.precharged:
            yield from self._rows
            return
        for row in self._rows:
            self.counter.charge("tuple_cpu")
            yield row

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        if self.precharged:
            # Scan CPU prepaid by the shared delta scan; the profile hook
            # mirrors charges only, so it stays silent too.
            yield from iter_blocks(self._rows, self.layout, block_size)
            return
        charge = self.counter.charge
        prof = self._prof
        for block in iter_blocks(self._rows, self.layout, block_size):
            charge("tuple_cpu", len(block))
            if prof is not None:
                prof.add("tuple_cpu", len(block))
            yield block

    def __len__(self) -> int:
        return len(self._rows)


class Filter(Operator):
    """Select rows satisfying a compiled predicate."""

    def __init__(self, child: Operator, predicate: Expression):
        self.child = child
        self.counter = child.counter
        self.layout = child.layout
        self.predicate = predicate
        self._fn = predicate.compile(child.layout)
        self._block_fn = predicate.compile_block(child.layout)

    def __iter__(self) -> Iterator[tuple]:
        for row in self.child:
            self.counter.charge("compares")
            if self._fn(row):
                yield row

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        block_fn = self._block_fn
        charge = self.counter.charge
        prof = self._prof
        for block in self.child.blocks(block_size):
            charge("compares", len(block))
            if prof is not None:
                prof.add("compares", len(block))
            flags = block_fn(block)
            if all(flags):
                yield block  # nothing filtered: pass through zero-copy
                continue
            keep = [i for i, flag in enumerate(flags) if flag]
            if keep:
                yield block.take(keep)


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

    def __iter__(self) -> Iterator[tuple]:
        positions = self._positions
        for row in self.child:
            self.counter.charge("tuple_cpu")
            yield tuple(row[p] for p in positions)

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        positions = self._positions
        charge = self.counter.charge
        prof = self._prof
        for block in self.child.blocks(block_size):
            charge("tuple_cpu", len(block))
            if prof is not None:
                prof.add("tuple_cpu", len(block))
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


def materialize(source: Iterable[tuple]) -> list[tuple]:
    """Pull an operator (or any iterable) fully into a list."""
    return list(source)
