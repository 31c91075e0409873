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

The view also owns the consistency bookkeeping: which base-table LSNs its
contents reflect (via the delta tables), and a from-scratch
:meth:`recompute`, the engine's own answer a test may hold the contents to.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Hashable

from repro.engine.aggregate import GroupStates, bucket_block
from repro.engine.block import RowBlock
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.expr import resolve_column
from repro.engine.query import QuerySpec
from repro.ivm.delta import DeltaTable
from repro.ivm.sharedscan import Evaluation, Evaluations


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
        # Built first: an unknown aggregate function refuses the view
        # before it subscribes to any table's history.
        agg = spec.aggregate
        self.is_aggregate = agg is not None
        self._groups: GroupStates | None = (
            GroupStates(agg.func, database.counter) if agg is not None else None
        )
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
        self._rows: Counter | None = None
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
        """Release the view's delta subscriptions on the shared mod logs.

        Idempotent.  After closing, the base tables' histories may be
        truncated past whatever this view had not yet applied; the view's
        contents stay readable but it must not be maintained further.
        """
        for delta in self.deltas.values():
            delta.close()

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
            result = self._materialize(
                self.spec, self.spec.key(), evaluations
            ).result
            self._rows = Counter(result.rows)
            # Canonical column order for SPJ contents: incremental batches
            # arrive in *rebased* join order (and un-projected), so every
            # derived row is reordered/projected to this layout before it
            # touches the multiset.
            self._columns = result.columns
            self._fold_key = ("rows", self._columns)

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
        if self.is_aggregate:
            assert self._groups is not None
            return self._groups.results()
        assert self._rows is not None
        return {row: count for row, count in self._rows.items() if count}

    def scalar(self) -> Any:
        """Value of a scalar aggregate view (None over empty input)."""
        if not self.is_aggregate or self.spec.aggregate.group_by:
            raise SchemaError(f"view {self.name!r} is not a scalar aggregate")
        assert self._groups is not None
        return self._groups.result(())

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
        it once; only the fold itself is each view's own.  The input
        has one shape whether it is inserted or deleted, and an
        evaluation holds one sign's rows, so the fold key names no sign.
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
        self._fold(folding, sign)

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

    def _fold(self, folding, sign: int) -> None:
        """Apply one :meth:`_fold_input` to the contents."""
        if self.is_aggregate:
            assert self._groups is not None
            try:
                if sign > 0:
                    self._groups.insert(folding)
                else:
                    self._groups.delete(folding)
            except ExecutionError as exc:
                raise ExecutionError(f"view {self.name!r}: {exc}") from exc
        else:
            assert self._rows is not None
            if sign > 0:
                self._rows.update(folding)
            else:
                self._rows.subtract(folding)
                for row in folding:
                    if self._rows[row] < 0:
                        raise ExecutionError(
                            f"view {self.name!r}: negative multiplicity for "
                            f"{row!r} -- delta propagation bug"
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
