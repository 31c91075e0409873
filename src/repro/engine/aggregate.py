"""Aggregation: full evaluation and incrementally maintainable states.

The paper's experimental view is ``SELECT MIN(PS.supplycost) FROM ...``.
MIN/MAX are the interesting aggregates for incremental maintenance: an
insert can only improve the extremum (O(1)), but deleting the current
extremum forces a recomputation over the surviving values -- the "MIN is
not incrementally maintainable" case the paper's Section 5 mentions as a
source of irregularity in its measured cost curves.  We reproduce that
faithfully with a counted multiset whose recomputation cost is charged to
the cost model.

Three layers:

* :class:`AggregateState` subclasses -- incremental fold/unfold of one
  group's values, a batch at a time.
* :func:`bucket_block` and :class:`GroupStates` -- the grouped fold: a
  block's aggregate inputs bucketed by group key, and the states by group
  key those buckets are inserted into and deleted from.  Both the
  :class:`Aggregate` operator (full evaluation) and
  :class:`~repro.ivm.view.MaterializedView` (delta application) fold
  through this pair and nothing else.
* :class:`Aggregate` -- a physical operator computing grouped or scalar
  aggregates over a child operator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator, Sequence

from repro import obs
from repro.engine.block import RowBlock, iter_blocks
from repro.engine.costmodel import OperationCounter
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.operators import Operator


class AggregateState(ABC):
    """Incrementally maintained state of one aggregate over one group."""

    def __init__(self, counter: OperationCounter | None = None):
        self.counter = counter

    def _charge(self, field: str, count: int = 1) -> None:
        if self.counter is not None:
            self.counter.charge(field, count)

    @abstractmethod
    def insert_many(self, values: Sequence[Any]) -> None:
        """Fold a batch of inserted values, in order.

        The counter is charged once per call; the state and the charged
        totals are those of the same values folded one call each (the
        per-value updates run in the identical sequential order, so even
        float accumulation is bit-for-bit the same).
        """

    @abstractmethod
    def delete_many(self, values: Sequence[Any]) -> None:
        """Unfold a batch of deleted values, in order: one ``agg_updates``
        charge per call, state and totals as :meth:`insert_many` says."""

    @abstractmethod
    def result(self) -> Any:
        """Current aggregate value (None over an empty group)."""

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of values currently folded in."""

    def is_empty(self) -> bool:
        """True when no values remain in the group."""
        return self.count == 0


class CountState(AggregateState):
    """COUNT(*)-style tally."""

    def __init__(self, counter: OperationCounter | None = None):
        super().__init__(counter)
        self._count = 0

    def insert_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        self._count += len(values)

    def delete_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        if len(values) > self._count:
            raise ExecutionError("COUNT underflow: delete from empty group")
        self._count -= len(values)

    def result(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count


class SumState(AggregateState):
    """SUM with a companion count so empty groups report None."""

    def __init__(self, counter: OperationCounter | None = None):
        super().__init__(counter)
        self._sum = 0.0
        self._count = 0

    def insert_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        # Sequential accumulation, NOT sum(): float addition is not
        # associative, and a batch must match its values folded one call
        # each bit-for-bit.
        for value in values:
            self._sum += value
        self._count += len(values)

    def delete_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        if len(values) > self._count:
            raise ExecutionError("SUM underflow: delete from empty group")
        for value in values:
            self._sum -= value
        self._count -= len(values)

    def result(self) -> float | None:
        return self._sum if self._count else None

    @property
    def count(self) -> int:
        return self._count


class AvgState(SumState):
    """AVG = SUM / COUNT, sharing SUM's incremental bookkeeping."""

    def result(self) -> float | None:
        return self._sum / self._count if self._count else None


class _ExtremumState(AggregateState):
    """Counted multiset with a cached extremum (shared by MIN and MAX).

    Inserts are O(1).  Deleting a non-extremal value is O(1).  Deleting the
    last copy of the current extremum triggers a recomputation over the
    distinct surviving values, charged as ``sort_items`` -- the engine-level
    footprint of "MIN is not incrementally maintainable".  It happens at
    that value's turn, mid-batch, over the survivors of that moment.
    """

    #: pick the new extremum from an iterable of distinct values
    _choose = staticmethod(min)
    #: True when candidate should replace current cached extremum
    @staticmethod
    def _beats(candidate: Any, current: Any) -> bool:
        raise NotImplementedError

    def __init__(self, counter: OperationCounter | None = None):
        super().__init__(counter)
        self._multiset: dict[Any, int] = {}
        self._extremum: Any = None
        self._count = 0
        self.recomputations = 0  # observable for tests/ablations

    def insert_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        multiset = self._multiset
        extremum = self._extremum
        for value in values:
            multiset[value] = multiset.get(value, 0) + 1
            if extremum is None or self._beats(value, extremum):
                extremum = value
        self._extremum = extremum
        self._count += len(values)

    def delete_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        multiset = self._multiset
        for value in values:
            have = multiset.get(value, 0)
            if have == 0:
                raise ExecutionError(
                    f"extremum aggregate underflow: {value!r} not present"
                )
            self._count -= 1
            if have > 1:
                multiset[value] = have - 1
                continue
            del multiset[value]
            if value == self._extremum:
                # The extremum left the multiset: recompute from survivors.
                # This is the "MIN is not incrementally maintainable" event
                # the paper blames for cost-curve irregularity -- worth a
                # counter.
                self.recomputations += 1
                obs.counter("engine.aggregate.extremum_recomputes")
                self._charge("sort_items", max(1, len(multiset)))
                self._extremum = self._choose(multiset) if multiset else None

    def result(self) -> Any:
        return self._extremum

    @property
    def count(self) -> int:
        return self._count


class MinState(_ExtremumState):
    """Incrementally maintained MIN."""

    _choose = staticmethod(min)

    @staticmethod
    def _beats(candidate: Any, current: Any) -> bool:
        return candidate < current


class MaxState(_ExtremumState):
    """Incrementally maintained MAX."""

    _choose = staticmethod(max)

    @staticmethod
    def _beats(candidate: Any, current: Any) -> bool:
        return candidate > current


_STATE_FACTORIES = {
    "count": CountState,
    "sum": SumState,
    "avg": AvgState,
    "min": MinState,
    "max": MaxState,
}

def make_aggregate_state(
    func: str, counter: OperationCounter | None = None
) -> AggregateState:
    """Instantiate the state class for aggregate function ``func``."""
    try:
        factory = _STATE_FACTORIES[func.lower()]
    except KeyError:
        raise SchemaError(
            f"unknown aggregate {func!r}; have {sorted(_STATE_FACTORIES)}"
        ) from None
    return factory(counter)


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
    """The states of one aggregate function by group key: the one grouped
    fold.

    :meth:`insert` and :meth:`delete` take :func:`bucket_block`-shaped
    buckets.  A group exists from its first inserted value until a delete
    empties it, so ``states`` never holds an empty group.  Groups are
    independent and a bucket keeps row order, so what each state ends up
    holding and what it charges are those of the same rows folded one at
    a time, however they were cut into blocks.
    """

    __slots__ = ("func", "counter", "states")

    def __init__(self, func: str, counter: OperationCounter | None):
        self.func = func
        self.counter = counter
        self.states: dict[tuple, AggregateState] = {}

    def insert(self, buckets: dict[tuple, list]) -> None:
        states = self.states
        for key, values in buckets.items():
            state = states.get(key)
            if state is None:
                state = states[key] = make_aggregate_state(
                    self.func, self.counter
                )
            state.insert_many(values)

    def delete(self, buckets: dict[tuple, list]) -> None:
        states = self.states
        for key, values in buckets.items():
            state = states.get(key)
            if state is None:
                raise ExecutionError(f"delete from absent group {key!r}")
            state.delete_many(values)
            if state.is_empty():
                del states[key]


class Aggregate(Operator):
    """Grouped (or scalar) aggregation over a child operator.

    Output rows are ``group_by columns ++ (aggregate value,)``; with no
    group-by columns the output is a single row ``(aggregate value,)``
    (None over empty input, matching SQL's scalar-aggregate semantics for
    MIN/SUM and 0 for COUNT).
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

    def blocks(self, block_size: int) -> Iterator[RowBlock]:
        groups = GroupStates(self.func, self.counter)
        group_positions = self._group_positions
        value_block_fn = self._value_block_fn
        rows_in = 0
        for block in self.child.blocks(block_size):
            rows_in += len(block)
            # Bucket this block's values by group key, preserving row order
            # within each group, then fold each bucket in one bulk call.
            groups.insert(bucket_block(block, group_positions, value_block_fn))
        states = groups.states
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("engine.aggregate.rows_in", rows_in)
            recorder.counter("engine.aggregate.groups_out", len(states))
        if not states and not self._group_positions:
            empty = make_aggregate_state(self.func, self.counter)
            out_rows = [(empty.result(),)]
        else:
            out_rows = [
                key + (states[key].result(),) for key in sorted(states, key=repr)
            ]
        yield from iter_blocks(out_rows, self.layout, block_size)
