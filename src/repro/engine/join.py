"""Join operators: index-nested-loop and hash join.

The choice between them is the engine-level origin of the paper's central
cost asymmetry:

* :class:`IndexNestedLoopJoin` probes an index once per outer tuple --
  cost roughly linear in the outer (delta) size with a small slope and no
  setup.  This is the cheap ``R |x| dS`` path when ``R`` is indexed.
* :class:`HashJoin` builds a hash table on one side and streams the other
  -- a large setup cost (scanning and hashing the big side) that is then
  amortized over the batch.  This is the expensive-but-batchable
  ``dR |x| S`` path when ``S`` has no index: its cost curve has exactly
  the ``b + a*k`` shape of Section 3.3.

The asymmetry is in what each charges.  Over a base table both read the
same structure, the inner snapshot's
:meth:`~repro.engine.snapshot.Snapshot.keyed` map.

A join's natural output is left columns followed by right columns.  The
two equi-joins assemble it column by column through one kernel,
:func:`gather_join`, and only for the columns in ``keep`` -- the ones the
rest of the plan reads.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Hashable, Iterator, Mapping, Sequence

from repro import obs
from repro.engine.block import RowBlock
from repro.engine.errors import SchemaError
from repro.engine.expr import resolve_column
from repro.engine.operators import Operator, SeqScan, merged_layout
from repro.engine.snapshot import Snapshot


class IndexNestedLoopJoin(Operator):
    """For each outer tuple, probe an index on the inner snapshot.

    ``left_column`` names the outer join key (qualified); ``right_column``
    the inner key, which must have an index on ``snapshot``'s table.  Cost:
    one index probe per outer tuple plus per-match tuple CPU.  The probe
    reads the snapshot's :meth:`~repro.engine.snapshot.Snapshot.keyed`
    map on the inner key.
    """

    def __init__(
        self,
        left: Operator,
        snapshot: Snapshot,
        alias: str,
        left_column: str,
        right_column: str,
        keep: Sequence[str] | None = None,
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
        self.layout, self._left_kept, self._right_kept = kept_sides(
            left.layout, right_layout, keep
        )
        self._left_pos = resolve_column(left_column, left.layout)
        self._right_column = right_column

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        pos = self._left_pos
        # Subscript, not ``get``: the map derives a key it lacks.
        probe = self.snapshot.keyed(self._right_column).__getitem__
        layout = self.layout
        left_kept, right_kept = self._left_kept, self._right_kept
        probes = rows_out = 0
        try:
            for lblock in self.left.blocks(block_size):
                probes += len(lblock)
                self.counter.charge("index_probes", len(lblock))
                hits = list(map(probe, lblock.column(pos)))
                joined = gather_join(lblock, hits, left_kept, right_kept, layout)
                if joined is not None:
                    self.counter.charge("tuple_cpu", len(joined))
                    rows_out += len(joined)
                    yield joined
        finally:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.counter("engine.join.inl.probes", probes)
                recorder.counter("engine.join.inl.rows_out", rows_out)
                recorder.counter("engine.join.rows_out", rows_out)


def kept_sides(
    left: Mapping[str, int],
    right: Mapping[str, int],
    keep: Sequence[str] | None,
) -> tuple[dict[str, int], list[int], list[int]]:
    """Output layout of an equi-join that emits ``keep``, with the source
    position of each kept column on its side.

    Left columns precede right columns, each side in ``keep``'s order;
    ``None`` keeps every column of both sides.
    """
    merged = merged_layout(left, right)  # rejects a name on both sides
    if keep is None:
        return merged, list(left.values()), list(right.values())
    left_names = [name for name in keep if name in left]
    right_names = [name for name in keep if name in right]
    layout = {name: pos for pos, name in enumerate(left_names + right_names)}
    if len(layout) != len(keep):
        raise SchemaError(
            f"join cannot emit {list(keep)}: unknown or repeated columns "
            f"in layout {list(merged)}"
        )
    return (
        layout,
        [left[name] for name in left_names],
        [right[name] for name in right_names],
    )


def gather_join(
    lblock: RowBlock,
    hits: Sequence[Sequence[tuple]],
    left_kept: Sequence[int],
    right_kept: Sequence[int],
    layout: Mapping[str, int],
) -> RowBlock | None:
    """Assemble one joined block from per-row match lists, charge-free.

    ``hits[i]`` holds the right rows matching row ``i`` of ``lblock``.  The
    output has one row per match, in left-block row order, carrying the
    left columns at positions ``left_kept`` followed by the right values
    at ``right_kept``; None when nothing matched.  Each column is built by
    one C-level pass: a left value repeated once per match of its row, a
    right value picked out of each match.  The left block's row view is
    never materialized.  Charging stays with the caller.
    """
    matches = list(chain.from_iterable(hits))
    if not matches:
        return None
    if len(matches) == len(hits) and all(hits):
        # Every probe matched exactly once: the left columns are the output.
        columns = [lblock.column(p) for p in left_kept]
    else:
        fanout = list(map(len, hits))
        columns = [
            list(chain.from_iterable(map(repeat, lblock.column(p), fanout)))
            for p in left_kept
        ]
    columns.extend(list(map(itemgetter(p), matches)) for p in right_kept)
    return RowBlock.from_columns(columns, layout, length=len(matches))


class BuildSide(dict):
    """A hash table built from an operator input: key -> its rows, in
    arrival order.

    A key it lacks has no rows, so probe with ``side[key]``, which answers
    ``()`` for it.
    """

    __slots__ = ()

    def __missing__(self, key: Hashable) -> tuple:
        return ()


class HashJoin(Operator):
    """Equi-join: build a hash table on the right side, stream the left.

    Build cost is the dominant term when the right side is a big base
    table: the whole table is scanned (page reads via the child scan) and
    hashed (one ``hash_build`` per tuple) on the join's first pull,
    *before its first output row* -- the setup cost ``b`` of the paper's
    linear cost model.  Constructing the join charges nothing.

    ``right`` is one of two inputs.  A :class:`SeqScan` of a base table
    lends its snapshot's :meth:`~repro.engine.snapshot.Snapshot.keyed`
    map, the one an index probe reads, and is charged the full scan and
    build that table stands for, so the simulated cost never depends on
    what the snapshot already held (nor on which buckets the map derives
    when probed).  Any other operator (a
    :class:`~repro.engine.operators.RowSource` delta batch) is pulled and
    hashed here, into a :class:`BuildSide`.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_column: str,
        right_column: str,
        keep: Sequence[str] | None = None,
    ):
        self.left = left
        self.right = right
        self.counter = left.counter
        self.layout, self._left_kept, self._right_kept = kept_sides(
            left.layout, right.layout, keep
        )
        self._left_pos = resolve_column(left_column, left.layout)
        self._right_pos = resolve_column(right_column, right.layout)

    def build(self, block_size: int) -> Mapping[Hashable, Sequence[tuple]]:
        """Hash the right input on its key, charging the build; the first
        pull of :meth:`blocks` calls it once."""
        right, right_pos = self.right, self._right_pos
        if isinstance(right, SeqScan):
            build_rows = right.charge_full_scan()
            self.counter.charge("hash_builds", build_rows)
            table = right.snapshot.keyed(right.snapshot.schema.names[right_pos])
        else:
            build_rows = 0
            table = BuildSide()
            for rblock in right.blocks(block_size):
                build_rows += len(rblock)
                self.counter.charge("hash_builds", len(rblock))
                for key, rrow in zip(rblock.column(right_pos), rblock.rows()):
                    table.setdefault(key, []).append(rrow)
        # The build is the setup cost ``b`` of the paper's cost model;
        # surfacing it separately from probe-side output is what lets a
        # trace show where a batch's time actually went.
        obs.counter("engine.join.hash.build_rows", build_rows)
        return table

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        pos = self._left_pos
        # Subscript, not ``get``: a keyed map derives what it lacks.
        probe = self.build(block_size).__getitem__
        layout = self.layout
        left_kept, right_kept = self._left_kept, self._right_kept
        probes = rows_out = 0
        try:
            for lblock in self.left.blocks(block_size):
                probes += len(lblock)
                self.counter.charge("hash_probes", len(lblock))
                hits = list(map(probe, lblock.column(pos)))
                joined = gather_join(lblock, hits, left_kept, right_kept, layout)
                if joined is not None:
                    self.counter.charge("tuple_cpu", len(joined))
                    rows_out += len(joined)
                    yield joined
        finally:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.counter("engine.join.hash.probes", probes)
                recorder.counter("engine.join.hash.rows_out", rows_out)
                recorder.counter("engine.join.rows_out", rows_out)
