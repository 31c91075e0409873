"""Aggregation: full evaluation and the incrementally maintained fold.

The paper's experimental view is ``SELECT MIN(PS.supplycost) FROM ...``.
MIN/MAX are the interesting aggregates for incremental maintenance: an
insert can only improve the extremum (O(1)), but deleting the current
extremum forces a recomputation over the surviving values -- the "MIN is
not incrementally maintainable" case the paper's Section 5 mentions as a
source of irregularity in its measured cost curves.  We reproduce that
faithfully with a counted multiset whose recomputation cost is charged to
the cost model.

Two layers:

* :func:`bucket_block` and :class:`GroupStates` -- the grouped fold: a
  block's aggregate inputs bucketed by group key, and one kernel per
  aggregate family that folds those buckets into, and out of, flat dicts
  keyed by group.  Both the :class:`Aggregate` operator (full evaluation)
  and :class:`~repro.ivm.view.MaterializedView` (delta application) fold
  through this pair and nothing else.
* :class:`Aggregate` -- a physical operator computing grouped or scalar
  aggregates over a child operator.
"""

from __future__ import annotations

import operator
from typing import Any, Iterator, Sequence

from repro import obs
from repro.engine.block import RowBlock, iter_blocks
from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.operators import Operator


#: The aggregate functions :class:`GroupStates` folds.
FUNCTIONS = ("avg", "count", "max", "min", "sum")


def aggregate_function(func: str) -> str:
    """``func`` lower-cased, if it names one of :data:`FUNCTIONS`; a
    :class:`SchemaError` otherwise."""
    name = func.lower()
    if name not in FUNCTIONS:
        raise SchemaError(
            f"unknown aggregate {name!r}; have {sorted(FUNCTIONS)}"
        )
    return name


def bucket_block(block, group_positions, value_block_fn) -> dict[tuple, list]:
    """Compute and bucket one block's aggregate inputs by group key.

    Returns ``{group_key: [values in row order]}``; the empty tuple keys
    the scalar (no group-by) case.  Every bucket holds at least one
    value: an empty block has no buckets, not an empty scalar one.
    Charge-free, and the buckets may share the block's column lists, so
    they are read, never mutated.
    """
    values = value_block_fn(block)
    if not group_positions:
        return {(): values} if values else {}
    key_columns = [block.column(p) for p in group_positions]
    buckets: dict[tuple, list] = {}
    for key, value in zip(zip(*key_columns), values):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [value]
        else:
            bucket.append(value)
    return buckets


class GroupStates:
    """One aggregate function's state by group key: the one grouped fold.

    :meth:`insert` and :meth:`delete` take :func:`bucket_block`-shaped
    buckets and charge ``agg_updates`` once per call, with the number of
    values the call folded.  The function (checked by
    :func:`aggregate_function`) picks the kernel and the dicts it keeps,
    each keyed by group:

    * COUNT keeps ``counts``;
    * SUM and AVG keep ``sums`` and ``counts``, a bucket added one value
      at a time in bucket order (float addition is not associative, so a
      bucket must match its values folded one call each bit-for-bit);
    * MIN and MAX keep ``multisets`` (value -> multiplicity) and
      ``extrema``.  Deleting the last copy of a group's extremum
      recomputes it, at that value's turn, over the survivors of that
      moment, charged as ``sort_items`` and counted in
      ``recomputations`` -- the engine-level footprint of "MIN is not
      incrementally maintainable".

    A group exists from its first inserted value until a delete empties
    it, and then leaves every dict.  Groups are independent and a bucket
    keeps row order, so what the fold holds and charges are those of the
    same rows folded one at a time, however they were cut into blocks.
    A call that raises has charged the groups before the failing one and
    the failing group's values, unless it failed for being absent.
    """

    __slots__ = (
        "func", "counter", "counts", "sums", "multisets", "extrema",
        "recomputations", "insert", "delete", "_answers", "_beats", "_choose",
    )

    def __init__(self, func: str, counter: OperationCounter):
        self.func = func = aggregate_function(func)
        self.counter = counter
        self.counts: dict[tuple, int] = {}
        self.sums: dict[tuple, float] = {}
        self.multisets: dict[tuple, dict[Any, int]] = {}
        self.extrema: dict[tuple, Any] = {}
        #: extremum recomputations over the fold's lifetime
        self.recomputations = 0
        if func == "count":
            self.insert, self.delete = self._count_insert, self._count_delete
            self._answers = self.counts
        elif func in ("sum", "avg"):
            self.insert, self.delete = self._sum_insert, self._sum_delete
            self._answers = self.sums
        else:
            self.insert = self._extremum_insert
            self.delete = self._extremum_delete
            self._answers = self.extrema
            self._beats = operator.lt if func == "min" else operator.gt
            self._choose = min if func == "min" else max

    def copy(self) -> "GroupStates":
        """A fold of the same function and counter holding what this one
        holds, groups, values and recomputation count, and sharing no
        mutable dict with it.  Charges nothing."""
        twin = GroupStates(self.func, self.counter)
        twin.counts.update(self.counts)
        twin.sums.update(self.sums)
        twin.multisets.update(
            (key, dict(multiset)) for key, multiset in self.multisets.items()
        )
        twin.extrema.update(self.extrema)
        twin.recomputations = self.recomputations
        return twin

    def result(self, key: tuple) -> Any:
        """The value of group ``key`` (None when there is no such group)."""
        if self.func == "avg":
            total = self.sums.get(key)
            return None if total is None else total / self.counts[key]
        return self._answers.get(key)

    def results(self) -> dict[tuple, Any]:
        """``{group key: value}`` over every group."""
        if self.func == "avg":
            counts = self.counts
            return {key: total / counts[key] for key, total in self.sums.items()}
        return dict(self._answers)

    # -- COUNT ------------------------------------------------------------

    def _count_insert(self, buckets: dict[tuple, list]) -> None:
        counts = self.counts
        n = 0
        for key, values in buckets.items():
            n += len(values)
            counts[key] = counts.get(key, 0) + len(values)
        self.counter.charge("agg_updates", n)

    def _count_delete(self, buckets: dict[tuple, list]) -> None:
        counts = self.counts
        n = 0
        try:
            for key, values in buckets.items():
                have = counts.get(key)
                if have is None:
                    raise ExecutionError(f"delete from absent group {key!r}")
                n += len(values)
                left = have - len(values)
                if left > 0:
                    counts[key] = left
                elif left == 0:
                    del counts[key]
                else:
                    raise ExecutionError(
                        "COUNT underflow: delete from empty group"
                    )
        finally:
            self.counter.charge("agg_updates", n)

    # -- SUM and AVG ------------------------------------------------------

    def _sum_insert(self, buckets: dict[tuple, list]) -> None:
        sums = self.sums
        counts = self.counts
        n = 0
        try:
            for key, values in buckets.items():
                n += len(values)
                total = sums.get(key, 0.0)
                for value in values:
                    total += value
                sums[key] = total
                counts[key] = counts.get(key, 0) + len(values)
        finally:
            self.counter.charge("agg_updates", n)

    def _sum_delete(self, buckets: dict[tuple, list]) -> None:
        sums = self.sums
        counts = self.counts
        n = 0
        try:
            for key, values in buckets.items():
                have = counts.get(key)
                if have is None:
                    raise ExecutionError(f"delete from absent group {key!r}")
                n += len(values)
                left = have - len(values)
                if left > 0:
                    total = sums[key]
                    for value in values:
                        total -= value
                    sums[key] = total
                    counts[key] = left
                elif left == 0:
                    del sums[key], counts[key]
                else:
                    raise ExecutionError(
                        "SUM underflow: delete from empty group"
                    )
        finally:
            self.counter.charge("agg_updates", n)

    # -- MIN and MAX ------------------------------------------------------

    def _extremum_insert(self, buckets: dict[tuple, list]) -> None:
        multisets = self.multisets
        extrema = self.extrema
        beats = self._beats
        n = 0
        try:
            for key, values in buckets.items():
                n += len(values)
                multiset = multisets.get(key)
                if multiset is None:
                    multiset = multisets[key] = {}
                    best = values[0]
                else:
                    best = extrema[key]
                for value in values:
                    multiset[value] = multiset.get(value, 0) + 1
                    if beats(value, best):
                        best = value
                extrema[key] = best
        finally:
            self.counter.charge("agg_updates", n)

    def _extremum_delete(self, buckets: dict[tuple, list]) -> None:
        multisets = self.multisets
        extrema = self.extrema
        n = 0
        try:
            for key, values in buckets.items():
                multiset = multisets.get(key)
                if multiset is None:
                    raise ExecutionError(f"delete from absent group {key!r}")
                n += len(values)
                best = extrema[key]
                for value in values:
                    have = multiset.get(value, 0)
                    if have > 1:
                        multiset[value] = have - 1
                    elif have:
                        del multiset[value]
                        if value == best:
                            best = extrema[key] = self._recompute(multiset)
                    else:
                        raise ExecutionError(
                            f"extremum aggregate underflow: {value!r} "
                            "not present"
                        )
                if not multiset:
                    del multisets[key], extrema[key]
        finally:
            self.counter.charge("agg_updates", n)

    def _recompute(self, multiset: dict[Any, int]) -> Any:
        """The extremum left ``multiset``: pick the next from the survivors.

        This is the "MIN is not incrementally maintainable" event the
        paper blames for cost-curve irregularity -- worth a counter.
        """
        self.recomputations += 1
        obs.counter("engine.aggregate.extremum_recomputes")
        self.counter.charge("sort_items", max(1, len(multiset)))
        return self._choose(multiset) if multiset else None


class Aggregate(Operator):
    """Grouped (or scalar) aggregation over a child operator.

    Output rows are ``group_by columns ++ (aggregate value,)``; with no
    group-by columns the output is a single row ``(aggregate value,)``
    (None over empty input, matching SQL's scalar-aggregate semantics for
    MIN/SUM and 0 for COUNT).  The function is checked with the operator,
    so a plan with an unknown function fails before it runs; each pull
    folds into a fold of its own.
    """

    def __init__(
        self,
        child: Operator,
        func: str,
        value: Expression,
        group_by: Sequence[str] = (),
    ):
        self.child = child
        self.counter = child.counter
        self.func = func.lower()
        self.value = value
        self._value_block_fn = value.compile_block(child.layout)
        self.group_by = tuple(group_by)
        self._group_positions = [
            resolve_column(name, child.layout) for name in group_by
        ]
        names = list(group_by) + [f"{self.func}"]
        self.layout = {n: i for i, n in enumerate(names)}
        if len(self.layout) != len(names):
            raise SchemaError(f"duplicate output columns in {names}")
        GroupStates(self.func, self.counter)  # refuses an unknown function

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        groups = GroupStates(self.func, self.counter)
        group_positions = self._group_positions
        value_block_fn = self._value_block_fn
        rows_in = 0
        for block in self.child.blocks(block_size):
            rows_in += len(block)
            # Bucket this block's values by group key, preserving row order
            # within each group, then fold every bucket in one call.
            groups.insert(bucket_block(block, group_positions, value_block_fn))
        results = groups.results()
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("engine.aggregate.rows_in", rows_in)
            recorder.counter("engine.aggregate.groups_out", len(results))
        if not results and not group_positions:
            out_rows = [(0 if self.func == "count" else None,)]
        else:
            out_rows = [
                key + (results[key],) for key in sorted(results, key=repr)
            ]
        yield from iter_blocks(out_rows, self.layout, block_size)
