"""Join operators: nested-loop, index-nested-loop, and hash join.

The choice among these is the engine-level origin of the paper's central
cost asymmetry:

* :class:`IndexNestedLoopJoin` probes an index once per outer tuple --
  cost roughly linear in the outer (delta) size with a small slope and no
  setup.  This is the cheap ``R |x| dS`` path when ``R`` is indexed.
* :class:`HashJoin` builds a hash table on one side and streams the other
  -- a large setup cost (scanning and hashing the big side) that is then
  amortized over the batch.  This is the expensive-but-batchable
  ``dR |x| S`` path when ``S`` has no index: its cost curve has exactly
  the ``b + a*k`` shape of Section 3.3.
* :class:`NestedLoopJoin` is the quadratic fallback for non-equi predicates.

All joins concatenate left and right tuples; layouts merge accordingly.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro import obs
from repro.obs import attrib
from repro.engine.block import DEFAULT_BLOCK_SIZE, RowBlock
from repro.engine.errors import SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.operators import Operator, SeqScan, merged_layout
from repro.engine.snapshot import Snapshot


class NestedLoopJoin(Operator):
    """Materialized inner, arbitrary join predicate; O(|L| * |R|) compares."""

    def __init__(self, left: Operator, right: Operator, predicate: Expression | None):
        self.left = left
        self.counter = left.counter
        self.layout = merged_layout(left.layout, right.layout)
        self._predicate = (
            predicate.compile(self.layout) if predicate is not None else None
        )
        if attrib.active_profile() is not None:
            # Profiled: the inner materialization is this join's "build"
            # phase -- capture its charges (made by the inner operator
            # against the shared counter) as a snapshot delta, so the
            # profile can attribute them to a join-build node.
            before = self.counter.snapshot()
            start = time.perf_counter()
            self._inner = right.rows()
            self._build_wall_ms = (time.perf_counter() - start) * 1e3
            after = self.counter.snapshot()
            self._build_tally = {
                f: after[f] - before[f] for f in after if after[f] != before[f]
            }
            self._build_rows = len(self._inner)
            self._build_label = f"Materialize({attrib._label_for(right)[1]})"
        else:
            self._inner = right.rows()

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        pred = self._predicate
        inner = self._inner
        layout = self.layout
        prof = self._prof
        rows_in = rows_out = 0
        try:
            for lblock in self.left.blocks(block_size):
                rows_in += len(lblock)
                # One compare per (outer, inner) pair.
                self.counter.charge("compares", len(lblock) * len(inner))
                if prof is not None:
                    prof.add("compares", len(lblock) * len(inner))
                if pred is None:
                    out = [lrow + rrow for lrow in lblock.rows() for rrow in inner]
                else:
                    out = [
                        row
                        for lrow in lblock.rows()
                        for rrow in inner
                        if pred(row := lrow + rrow)
                    ]
                rows_out += len(out)
                if out:
                    yield RowBlock.from_rows(out, layout)
        finally:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.counter("engine.join.nl.rows_in", rows_in)
                recorder.counter("engine.join.nl.rows_out", rows_out)
                recorder.counter("engine.join.rows_out", rows_out)


class IndexNestedLoopJoin(Operator):
    """For each outer tuple, probe an index on the inner snapshot.

    ``left_column`` names the outer join key (qualified); ``right_column``
    the inner key, which must have an index on ``snapshot``'s table.  Cost:
    one index probe per outer tuple plus per-match tuple CPU.
    """

    def __init__(
        self,
        left: Operator,
        snapshot: Snapshot,
        alias: str,
        left_column: str,
        right_column: str,
    ):
        if not snapshot.has_index(right_column):
            raise SchemaError(
                f"index-nested-loop join needs an index on "
                f"{snapshot.name}.{right_column}"
            )
        self.left = left
        self.counter = left.counter
        self.snapshot = snapshot
        self.alias = alias
        right_layout = {
            f"{alias}.{name}": pos
            for pos, name in enumerate(snapshot.schema.names)
        }
        self.layout = merged_layout(left.layout, right_layout)
        self._left_pos = resolve_column(left_column, left.layout)
        self._right_column = right_column

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        pos = self._left_pos
        lookup = self.snapshot.lookup
        right_column = self._right_column
        # One dict fetch per operator, then bare-key probes; ``lookup``
        # fills the same dict on a miss (and re-reads an empty hit).
        cached = self.snapshot.probe_cache(right_column).get
        layout = self.layout
        prof = self._prof
        probes = rows_out = 0
        try:
            for lblock in self.left.blocks(block_size):
                probes += len(lblock)
                self.counter.charge("index_probes", len(lblock))
                if prof is not None:
                    prof.add("index_probes", len(lblock))
                out = [
                    lrow + rrow
                    for lrow, key in zip(lblock.rows(), lblock.column(pos))
                    for rrow in cached(key) or lookup(right_column, key)
                ]
                if out:
                    self.counter.charge("tuple_cpu", len(out))
                    if prof is not None:
                        prof.add("tuple_cpu", len(out))
                    rows_out += len(out)
                    yield RowBlock.from_rows(out, layout)
        finally:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.counter("engine.join.inl.probes", probes)
                recorder.counter("engine.join.inl.rows_out", rows_out)
                recorder.counter("engine.join.rows_out", rows_out)


def probe_block(
    lblock: RowBlock, pos: int, table: dict, layout: dict
) -> RowBlock | None:
    """Probe one left block against a built hash table, charge-free.

    Returns the joined block (left tuple ++ right tuple per match, in
    left-block row order) or None when nothing matched.  Charging --
    ``hash_probes`` per input row, ``tuple_cpu`` per output row -- stays
    with the caller.

    Column-major inputs take a gather fast path: match indices are
    collected from the key column alone, left columns are gathered
    column-by-column (like :meth:`RowBlock.take`), and the output stays
    column-major -- the left block's row view is never materialized.
    """
    keys = lblock.column(pos)
    if lblock.is_columnar:
        idx: list[int] = []
        matches: list[tuple] = []
        for i, key in enumerate(keys):
            for rrow in table.get(key, ()):
                idx.append(i)
                matches.append(rrow)
        if not matches:
            return None
        left_width = len(lblock.layout)
        out_columns = [
            [column[i] for i in idx]
            for column in (lblock.column(p) for p in range(left_width))
        ]
        out_columns.extend(list(c) for c in zip(*matches))
        return RowBlock.from_columns(out_columns, layout, length=len(matches))
    out = [
        lrow + rrow
        for lrow, key in zip(lblock.rows(), keys)
        for rrow in table.get(key, ())
    ]
    if not out:
        return None
    return RowBlock.from_rows(out, layout)


class HashJoin(Operator):
    """Equi-join: build a hash table on the right side, stream the left.

    Build cost is the dominant term when the right side is a big base
    table: the whole table is scanned (page reads via the child scan) and
    hashed (one ``hash_build`` per tuple) *before the first output row* --
    the setup cost ``b`` of the paper's linear cost model.

    ``right`` is one of two inputs.  A base table -- a :class:`Snapshot`
    with the ``alias`` it joins under, or a :class:`SeqScan` of one --
    lends its retained :meth:`~repro.engine.snapshot.Snapshot.build_side`
    and is charged the full scan and build that table stands for, so the
    simulated cost never depends on what the snapshot already held.  Any
    other operator (a :class:`~repro.engine.operators.RowSource` delta
    batch) is pulled and hashed here.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator | Snapshot,
        left_column: str,
        right_column: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        alias: str | None = None,
    ):
        if isinstance(right, Snapshot):
            # Layout, label and scan charges of the scan this build replaces.
            right = SeqScan(right, alias, left.counter)
        self.left = left
        self.counter = left.counter
        self.layout = merged_layout(left.layout, right.layout)
        self._left_pos = resolve_column(left_column, left.layout)
        right_pos = resolve_column(right_column, right.layout)
        self._table: dict = {}
        build_rows = 0
        table = self._table
        profiled = attrib.active_profile() is not None
        if profiled:
            before = self.counter.snapshot()
            start = time.perf_counter()
        if isinstance(right, SeqScan):
            build_rows = right.charge_full_scan()
            self.counter.charge("hash_builds", build_rows)
            self._table = right.snapshot.build_side(
                right.snapshot.schema.names[right_pos]
            )
        else:
            for rblock in right.blocks(block_size):
                build_rows += len(rblock)
                self.counter.charge("hash_builds", len(rblock))
                for key, rrow in zip(rblock.column(right_pos), rblock.rows()):
                    table.setdefault(key, []).append(rrow)
        if profiled:
            # The snapshot delta covers the hash_builds above plus the
            # inner child's own scan charges -- the full setup cost ``b``
            # attributed to one join-build node.
            self._build_wall_ms = (time.perf_counter() - start) * 1e3
            after = self.counter.snapshot()
            self._build_tally = {
                f: after[f] - before[f] for f in after if after[f] != before[f]
            }
            self._build_rows = build_rows
            self._build_label = f"Build({attrib._label_for(right)[1]})"
        # The build is the setup cost ``b`` of the paper's cost model;
        # surfacing it separately from probe-side output is what lets a
        # trace show where a batch's time actually went.
        obs.counter("engine.join.hash.build_rows", build_rows)

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        pos = self._left_pos
        table = self._table
        layout = self.layout
        prof = self._prof
        probes = rows_out = 0
        try:
            for lblock in self.left.blocks(block_size):
                probes += len(lblock)
                self.counter.charge("hash_probes", len(lblock))
                if prof is not None:
                    prof.add("hash_probes", len(lblock))
                joined = probe_block(lblock, pos, table, layout)
                if joined is not None:
                    self.counter.charge("tuple_cpu", len(joined))
                    if prof is not None:
                        prof.add("tuple_cpu", len(joined))
                    rows_out += len(joined)
                    yield joined
        finally:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.counter("engine.join.hash.probes", probes)
                recorder.counter("engine.join.hash.rows_out", rows_out)
                recorder.counter("engine.join.rows_out", rows_out)
