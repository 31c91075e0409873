"""Aggregation: full evaluation and incrementally maintainable states.

The paper's experimental view is ``SELECT MIN(PS.supplycost) FROM ...``.
MIN/MAX are the interesting aggregates for incremental maintenance: an
insert can only improve the extremum (O(1)), but deleting the current
extremum forces a recomputation over the surviving values -- the "MIN is
not incrementally maintainable" case the paper's Section 5 mentions as a
source of irregularity in its measured cost curves.  We reproduce that
faithfully with a counted multiset whose recomputation cost is charged to
the cost model.

Two layers:

* :class:`AggregateState` subclasses -- incremental fold/unfold of single
  values, used both by the :class:`Aggregate` operator (full evaluation)
  and by :mod:`repro.ivm.maintenance` (delta application).
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
    def insert(self, value: Any) -> None:
        """Fold one inserted value into the state."""

    def insert_many(self, values: Sequence[Any]) -> None:
        """Fold a batch of inserted values, in order.

        Equivalent to ``for v in values: self.insert(v)`` -- same resulting
        state, same total charges.  Subclasses override to charge the
        counter once per batch (the blocked pipeline's amortization) while
        applying the per-value updates in the identical sequential order,
        so even float accumulation is bit-for-bit the same.
        """
        for value in values:
            self.insert(value)

    @abstractmethod
    def delete(self, value: Any) -> None:
        """Unfold one deleted value from the state."""

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

    def insert(self, value: Any) -> None:
        self._charge("agg_updates")
        self._count += 1

    def insert_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        self._count += len(values)

    def delete(self, value: Any) -> None:
        self._charge("agg_updates")
        if self._count == 0:
            raise ExecutionError("COUNT underflow: delete from empty group")
        self._count -= 1

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

    def insert(self, value: Any) -> None:
        self._charge("agg_updates")
        self._sum += value
        self._count += 1

    def insert_many(self, values: Sequence[Any]) -> None:
        self._charge("agg_updates", len(values))
        # Sequential accumulation, NOT sum(): float addition is not
        # associative, and results must match per-value insert() bit-for-bit.
        for value in values:
            self._sum += value
        self._count += len(values)

    def delete(self, value: Any) -> None:
        self._charge("agg_updates")
        if self._count == 0:
            raise ExecutionError("SUM underflow: delete from empty group")
        self._sum -= value
        self._count -= 1

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
    footprint of "MIN is not incrementally maintainable".
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

    def insert(self, value: Any) -> None:
        self._charge("agg_updates")
        self._multiset[value] = self._multiset.get(value, 0) + 1
        self._count += 1
        if self._extremum is None or self._beats(value, self._extremum):
            self._extremum = value

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

    def delete(self, value: Any) -> None:
        self._charge("agg_updates")
        have = self._multiset.get(value, 0)
        if have == 0:
            raise ExecutionError(
                f"extremum aggregate underflow: {value!r} not present"
            )
        if have == 1:
            del self._multiset[value]
        else:
            self._multiset[value] = have - 1
        self._count -= 1
        if value == self._extremum and value not in self._multiset:
            # The extremum left the multiset: recompute from survivors.
            # This is the "MIN is not incrementally maintainable" event the
            # paper blames for cost-curve irregularity -- worth a counter.
            self.recomputations += 1
            obs.counter("engine.aggregate.extremum_recomputes")
            self._charge("sort_items", max(1, len(self._multiset)))
            self._extremum = (
                self._choose(self._multiset) if self._multiset else None
            )

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
    the scalar (no group-by) case.  Charge-free.
    """
    values = value_block_fn(block)
    if not group_positions:
        return {(): values}
    key_columns = [block.column(p) for p in group_positions]
    buckets: dict[tuple, list] = {}
    for key, value in zip(zip(*key_columns), values):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [value]
        else:
            bucket.append(value)
    return buckets


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
        groups: dict[tuple, AggregateState] = {}
        group_positions = self._group_positions
        value_block_fn = self._value_block_fn
        prof = self._prof
        rows_in = 0
        for block in self.child.blocks(block_size):
            rows_in += len(block)
            # Every row in the block folds into a state below, charging
            # exactly one agg_update per value via insert_many.
            if prof is not None:
                prof.add("agg_updates", len(block))
            # Bucket this block's values by group key, preserving row order
            # within each group, then fold each bucket in one bulk call.
            buckets = bucket_block(block, group_positions, value_block_fn)
            for key, bucket in buckets.items():
                state = groups.get(key)
                if state is None:
                    state = make_aggregate_state(self.func, self.counter)
                    groups[key] = state
                state.insert_many(bucket)
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("engine.aggregate.rows_in", rows_in)
            recorder.counter("engine.aggregate.groups_out", len(groups))
        if not groups and not self._group_positions:
            empty = make_aggregate_state(self.func, self.counter)
            out_rows = [(empty.result(),)]
        else:
            out_rows = [
                key + (groups[key].result(),) for key in sorted(groups, key=repr)
            ]
        yield from iter_blocks(out_rows, self.layout, block_size)
