"""Materialized views: SPJ multisets and grouped aggregate folds.

A :class:`MaterializedView` couples a query definition with materialized
contents and per-base-table delta tables.  Two content shapes:

* **SPJ views** (no aggregate): contents are a multiset of result rows
  (counted dict) -- duplicates matter for correct incremental maintenance
  (Griffin & Libkin's counting approach);
* **aggregate views**: contents are the engine's own
  :class:`~repro.engine.aggregate.GroupStates` -- flat dicts keyed by
  group (a single implicit group for scalar aggregates like the paper's
  MIN view) that the aggregate function's kernel folds deltas into.

Either shape sits in a :class:`Contents` state that views kept in lock
step share: views materialized from one evaluation hold one state, and
a shared state is folded once per round and the fold kept in the
round's :class:`~repro.ivm.sharedscan.FoldMemo`, where every other
holder adopts it, each charged the fold again.  A sole holder, or the
first of holders the round runs alike, folds in place; the first of
holders that part ways folds a copy.

The view also owns the consistency bookkeeping: which base-table LSNs its
contents reflect (via the delta tables), and a from-scratch
:meth:`recompute`, the engine's own answer a test may hold the contents to.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Hashable, NoReturn

from repro.engine.aggregate import (
    GroupStates,
    aggregate_function,
    bucket_block,
)
from repro.engine.block import RowBlock
from repro.engine.costmodel import OperationCounter
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import resolve_column
from repro.engine.query import QuerySpec
from repro.ivm.delta import DeltaTable
from repro.ivm.sharedscan import Evaluation, Evaluations


class Contents:
    """A view's contents -- a :class:`GroupStates` or a row
    :class:`Counter` -- and how many views hold them."""

    __slots__ = ("data", "holders", "kept")

    def __init__(self, data: GroupStates | Counter):
        self.data = data
        #: Views whose contents these are.  A sole holder folds in place;
        #: otherwise a fold goes through the round's memo.
        self.holders = 0
        #: The serial of the :class:`~repro.ivm.sharedscan.FoldMemo` that
        #: keeps this state, or a fold of it, for later adopters: no fold
        #: through that memo is made in place.
        self.kept = 0


class MaterializedView:
    """A view over ``database`` maintained batch-incrementally."""

    def __init__(
        self,
        name: str,
        database: Database,
        spec: QuerySpec,
        evaluations: Evaluations | None = None,
    ):
        """``evaluations`` lets views registered together share their
        materialization: given one, a view whose query another view
        already ran through it (same structural key, tables unchanged
        since) takes that result and is charged what running it charged."""
        self.name = name
        self.database = database
        self.spec = spec
        agg = spec.aggregate
        self.is_aggregate = agg is not None
        #: The aggregate function folds go through (None: an SPJ view);
        #: checked first, so an unknown one refuses the view before it
        #: subscribes to any table's history.
        self._func = None if agg is None else aggregate_function(agg.func)
        #: The contents, held with every view they are shared with; None
        #: until materialized.
        self.state: Contents | None = None
        #: one delta table per alias, keyed by alias
        self.deltas: dict[str, DeltaTable] = {
            alias: DeltaTable(database.table(spec.table_of(alias)))
            for alias in spec.aliases
        }
        # One delta query per alias, built once: the view's join rebased so
        # the delta alias drives it (a small batch can then exploit
        # inner-table indexes), with aggregation and projection stripped
        # -- maintenance folds the raw join rows into the contents itself
        # -- and carrying the columns that fold reads, so the engine
        # moves no others.
        reads = self._fold_reads()
        self.delta_specs: dict[str, QuerySpec] = {}
        for alias in spec.aliases:
            rebased = spec.rebased(alias)
            self.delta_specs[alias] = QuerySpec(
                base_alias=rebased.base_alias,
                base_table=rebased.base_table,
                joins=rebased.joins,
                filters=rebased.filters,
                reads=reads,
            )
        #: alias -> structural key of its delta query (``QuerySpec.key``;
        #: a small int once :meth:`intern_keys` ran): views with equal
        #: keys derive the same rows from the same batch.
        self.delta_keys: dict[str, Hashable] = {
            alias: delta.key() for alias, delta in self.delta_specs.items()
        }
        #: alias -> (delta result columns, the fold input's reader
        #: resolved against them).
        self._folds: dict[str, tuple[tuple[str, ...], Callable]] = {}
        self._refcols: dict[str, frozenset[str] | None] = {}
        self._initialize(evaluations)

    def intern_keys(self, interned: dict[Hashable, tuple]) -> None:
        """Key the view's delta queries and fold input by the small ints
        ``interned`` stands their structural keys for, adding any it
        lacks, and run the delta spec interned with each key.  Equal keys
        intern to equal ints and one spec object, so what the view shares
        with views interned by the same table is unchanged; a round's
        lookups then hash ints, not nested tuples, and the engine works
        out an interned delta query's column plan once."""
        for alias, key in self.delta_keys.items():
            entry = (len(interned), self.delta_specs[alias])
            self.delta_keys[alias], self.delta_specs[alias] = (
                interned.setdefault(key, entry)
            )
        self._fold_key = interned.setdefault(
            self._fold_key, (len(interned), None)
        )[0]

    def close(self) -> None:
        """Release the view's delta subscriptions on the shared mod logs,
        and its hold on contents other views share.

        Idempotent.  After closing, the base tables' histories may be
        truncated past whatever this view had not yet applied; the view's
        contents stay readable -- a copy of its own, if they were shared
        -- but it must not be maintained further.
        """
        for delta in self.deltas.values():
            delta.close()
        state = self.state
        if state is not None and state.holders > 1:
            self.hold(Contents(state.data.copy()))

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------

    def _fold_reads(self) -> tuple[str, ...] | None:
        """The join-result columns the contents are folded from (None:
        all of them)."""
        agg = self.spec.aggregate
        if agg is not None:
            return (*agg.value.references(), *agg.group_by)
        return self.spec.projection

    def _initialize(self, evaluations: Evaluations | None) -> None:
        """Materialize from the current base-table state."""
        if self.is_aggregate:
            # Stream the un-aggregated join so the fold carries exact
            # multiset information (a finished aggregate value alone could
            # not support incremental deletes).
            agg = self.spec.aggregate
            self._columns: tuple[str, ...] = ()
            # What, beside the rows, decides the fold input: views with
            # equal fold keys read the same input out of a result.
            self._fold_key: Hashable = (
                "agg", agg.value.key(), tuple(agg.group_by)
            )
            base = self.spec.base_alias
            self.apply_delta(
                base,
                self._materialize(
                    self.delta_specs[base], self.delta_keys[base], evaluations
                ),
                +1,
            )
        else:
            evaluation = self._materialize(
                self.spec, self.spec.key(), evaluations
            )
            # Canonical column order for SPJ contents: incremental batches
            # arrive in *rebased* join order (and un-projected), so every
            # derived row is reordered/projected to this layout before it
            # touches the multiset.
            self._columns = evaluation.result.columns
            self._fold_key = ("rows", self._columns)
            self._fold(evaluation.result.rows, +1, evaluation)

    def _materialize(
        self, spec: QuerySpec, key: Hashable, evaluations: Evaluations | None
    ) -> Evaluation:
        """``spec`` over the current base tables."""
        if evaluations is None:
            return Evaluation(self.database.execute(spec))
        tables = [self.database.table(spec.table_of(a)) for a in spec.aliases]
        # The same query over the same states: no modification since, and
        # no index built since (which would change the plan it charges).
        state = tuple((t.current_lsn, len(t.indexes)) for t in tables)
        return evaluations.run((key, state), spec)

    def contents(self) -> dict:
        """The current materialized contents.

        SPJ views: ``{row_tuple: multiplicity}``.  Aggregate views:
        ``{group_key_tuple: aggregate_value}``.
        """
        data = self.state.data
        if self.is_aggregate:
            return data.results()
        return {row: count for row, count in data.items() if count}

    def scalar(self) -> Any:
        """Value of a scalar aggregate view (None over empty input)."""
        if not self.is_aggregate or self.spec.aggregate.group_by:
            raise SchemaError(f"view {self.name!r} is not a scalar aggregate")
        return self.state.data.result(())

    # ------------------------------------------------------------------
    # Incremental application (called by repro.ivm.maintenance)
    # ------------------------------------------------------------------

    def apply_insert_rows(self, rows: list[tuple], layout: dict[str, int]) -> None:
        """Fold freshly derived join-result rows into the contents."""
        self._fold(self._fold_input(layout)(rows), +1)

    def apply_delta(self, alias: str, evaluation: Evaluation, sign: int) -> None:
        """Fold (``sign`` > 0) or remove the rows of one evaluation of
        ``delta_specs[alias]``.

        What a delta query emits is fixed by the spec and the substituted
        alias, so the fold input's reader is resolved against it once per
        alias and reused for as long as the result's columns stay the
        same.  What it reads out of the rows (:meth:`_fold_input`) is
        kept with the evaluation, so views handed the same evaluation
        that fold alike -- ``SUM(x) BY k`` and ``MIN(x) BY k`` do -- read
        it once.  The input has one shape whether it is inserted or
        deleted, and an evaluation holds one sign's rows, so the fold key
        names no sign.  The fold itself is made once per state
        (:meth:`_fold`).
        """
        folding = evaluation.folds.get(self._fold_key)
        if folding is None:
            result = evaluation.result
            cached = self._folds.get(alias)
            if cached is None or cached[0] != result.columns:
                layout = {name: i for i, name in enumerate(result.columns)}
                cached = self._folds[alias] = (
                    result.columns, self._fold_input(layout)
                )
            folding = evaluation.folds[self._fold_key] = cached[1](result.rows)
        self._fold(folding, sign, evaluation)

    def _fold_input(self, layout: dict[str, int]) -> Callable[[list[tuple]], Any]:
        """The reader of what :meth:`_fold` consumes out of derived join
        rows laid out as ``layout``.

        Aggregate view: the rows as one block through the engine's own
        :func:`~repro.engine.aggregate.bucket_block` -- the argument
        values, computed by ``compile_block``, bucketed per group key in
        row order; no rows, no buckets.  SPJ view: the rows in the view's
        canonical column layout (incremental rows arrive in rebased join
        order).  Never mutated by a fold.
        """
        agg = self.spec.aggregate
        if agg is None:
            positions = [resolve_column(c, layout) for c in self._columns]
            return lambda rows: [
                tuple(row[p] for p in positions) for row in rows
            ]
        value_fn = agg.value.compile_block(layout)
        group_positions = [resolve_column(g, layout) for g in agg.group_by]
        return lambda rows: bucket_block(
            RowBlock.from_rows(rows, layout), group_positions, value_fn
        )

    def hold(self, state: Contents) -> None:
        """Make ``state`` the view's contents, letting go of the last."""
        previous = self.state
        if previous is not None:
            previous.holders -= 1
        state.holders += 1
        self.state = state

    def _fold(
        self, folding, sign: int, evaluation: Evaluation | None = None
    ) -> None:
        """Apply one :meth:`_fold_input` to the contents.

        A sole holder folds in place, unless the evaluation's memo keeps
        the state or a fold of it.  Otherwise -- the state is shared, or
        not materialized yet -- the view adopts the fold another holder
        of the same state made of the same evaluation, charged what it
        charged, or makes the fold and keeps it in the memo for the
        others: in place when the round runs every holder of the state
        alike (:attr:`~repro.ivm.sharedscan.FoldMemo.lockstep`), else
        into a copy, marking both states so no holder folds either in
        place while the memo is in use -- the last holder of a state its
        mates left this round adopts their fold too.  A fold that raises
        is kept with its error, and every adopter raises it in turn: each
        view is left the state as far as the fold got, as an unshared
        fold would leave it.
        """
        state = self.state
        memo = None if evaluation is None else evaluation.memo
        serial = None if memo is None else memo.serial
        key = None
        if state is not None and state.holders == 1 and state.kept != serial:
            target = state
        else:
            counter = self.database.counter
            if memo is not None:
                key = (evaluation, self._fold_key, self._func, state)
                kept = memo.get(key)
                if kept is not None:
                    target, charges, error = kept
                    counter.replay(charges)
                    self.hold(target)
                    if error is not None:
                        self._raise(error)
                    return
                before = counter.snapshot()
            if memo is not None and state in memo.lockstep:
                target = state
            else:
                target = Contents(
                    state.data.copy() if state is not None
                    else GroupStates(self._func, counter) if self.is_aggregate
                    else Counter()
                )
                self.hold(target)
        error = None
        try:
            self._fold_data(target.data, folding, sign)
        except Exception as exc:
            error = exc
        if key is not None:
            target.kept = serial
            if state is not None:
                state.kept = serial
            memo[key] = (
                target,
                OperationCounter.checked(counter.since(before).items()),
                error,
            )
        if error is not None:
            self._raise(error)

    def _raise(self, error: Exception) -> NoReturn:
        """Raise a fold's ``error`` as this view's."""
        if isinstance(error, ExecutionError):
            raise ExecutionError(f"view {self.name!r}: {error}") from error
        raise error

    def _fold_data(self, data, folding, sign: int) -> None:
        """Fold one :meth:`_fold_input` into ``data``, the contents of
        this view's shape."""
        if self.is_aggregate:
            if sign > 0:
                data.insert(folding)
            else:
                data.delete(folding)
        elif sign > 0:
            data.update(folding)
        else:
            data.subtract(folding)
            for row in folding:
                if data[row] < 0:
                    raise ExecutionError(
                        f"negative multiplicity for {row!r} -- delta "
                        "propagation bug"
                    )

    # ------------------------------------------------------------------
    # Delta sensitivity (used by shared-scan no-op suppression)
    # ------------------------------------------------------------------

    def referenced_columns(self, alias: str) -> frozenset[str] | None:
        """Bare columns of ``alias`` this view's contents can depend on.

        Returns ``None`` when every column matters (suppression is then
        impossible): SPJ views without a projection expose whole rows, and
        ordered/limited/distinct specs are treated conservatively.
        Otherwise they are the columns the plan of ``alias``'s delta query
        reads off the substituted batch, before any filter: its filters'
        columns, its join keys and the fold's.  An update event whose old
        and new rows agree on every one of them provably leaves the view
        unchanged -- the derived insert and delete batches are identical
        multisets over the columns the view consumes, so they cancel.
        Cached per alias.
        """
        try:
            return self._refcols[alias]
        except KeyError:
            pass
        spec = self.spec
        if (
            spec.limit is not None or spec.distinct or spec.order_by
            or (spec.aggregate is None and spec.projection is None)
        ):
            cols = None
        else:
            stages, _ = self.database.column_plan(self.delta_specs[alias])
            cols = frozenset(
                name.partition(".")[2] for name in stages[0].keeps[0]
            )
        self._refcols[alias] = cols
        return cols

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------

    def pending_sizes(self) -> dict[str, int]:
        """Per-alias unprocessed modification counts (the state vector)."""
        return {alias: d.size for alias, d in self.deltas.items()}

    def recompute(self) -> dict:
        """Contents recomputed from scratch at the view-incorporated LSNs.

        The incrementally maintained contents must always equal this.
        """
        lsns = {alias: d.applied_lsn for alias, d in self.deltas.items()}
        if self.is_aggregate:
            result = self.database.execute(self.spec, snapshot_lsns=lsns)
            # A global aggregate over an empty input is still one row in
            # the engine (SQL), valued None -- or 0 for COUNT, whose only
            # way to be 0; the contents keep no empty group, so neither
            # does this.
            counting = self.spec.aggregate.func == "count"
            out = {}
            for row in result.rows:
                key, value = row[:-1], row[-1]
                if value is None or (counting and value == 0):
                    continue
                out[key] = value
            return out
        result = self.database.execute(self.spec, snapshot_lsns=lsns)
        counted = Counter(result.rows)
        return dict(counted)

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, pending={self.pending_sizes()})"
        )
