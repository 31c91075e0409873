"""The database facade: tables, shared cost accounting, query execution.

:class:`Database` owns the tables and a single
:class:`~repro.engine.costmodel.OperationCounter`; every operator charges
that counter, so ``db.counter.window()`` brackets any unit of work (a
maintenance batch, a full refresh) and yields its simulated cost -- the
engine-side equivalent of the paper timing its maintenance SQL statements.

Query planning is deliberately rudimentary but honest:

* left-deep join order as declared in the :class:`~repro.engine.query.QuerySpec`;
* per join step, **index-nested-loop** when the inner table has an index
  on the join column, else **hash join** (build on the inner);
* filters are pushed down to the earliest point where their columns exist;
* every scan, filter and join emits only the columns something later in
  the plan still reads (a filter, a join key, the aggregate, the
  projection): the rest are never copied.  Names are resolved against
  the full, unpruned layout, so what is ambiguous stays ambiguous.

This mirrors what a real optimizer would do to these queries and is the
mechanism that turns physical design (which tables are indexed) into the
asymmetric delta-processing cost functions the paper exploits.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.engine.aggregate import Aggregate
from repro.engine.block import DEFAULT_BLOCK_SIZE
from repro.engine.costmodel import OperationCounter
from repro.engine.errors import SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.join import HashJoin, IndexNestedLoopJoin
from repro.engine.operators import Filter, Operator, Project, RowSource, SeqScan
from repro.engine.query import QueryResult, QuerySpec
from repro.engine.table import Table
from repro.engine.types import Schema
from repro.obs import attrib, events


@dataclass(slots=True)
class Stage:
    """One step of the left-deep plan, worked out by name before any
    operator exists: the base source or a join, then the filters that
    become ready on its output."""

    #: Full-layout position of the join's left key (None for the base).
    key: int | None
    #: Width of the full layout before this step's table joined in.
    left_width: int
    #: Each ready filter with the full-layout positions it reads.
    filters: list[tuple[Expression, list[int]]]
    #: Columns the source/join emits, then each filter in turn.
    keeps: list[list[str]]


class Database:
    """A named collection of tables sharing one cost counter.

    Every query runs the :class:`~repro.engine.block.RowBlock` pipeline
    with ``block_size`` rows per block, fixed at construction.  Results
    and simulated costs are identical at every size (see
    ``tests/integration/test_block_equivalence.py``); only wall-clock
    time depends on it.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        workers: int | None = None,
    ):
        if not isinstance(block_size, int) or block_size < 1:
            raise ValueError(
                f"block_size must be an int >= 1, got {block_size!r}"
            )
        # Execution is serial; ``workers`` survives only so callers that
        # still pass ``workers=0`` (benchmarks/layered) keep constructing.
        if workers:
            raise ValueError(
                f"workers={workers!r}: the worker pool was removed and "
                f"execution is always serial; omit the argument"
            )
        self.counter = OperationCounter()
        self.tables: dict[str, Table] = {}
        self.block_size = block_size
        #: id(spec) -> (weak reference to spec, its column plan).  A plan
        #: depends on the spec and on table schemas only, and a view runs
        #: the same spec objects for its whole life.
        self._column_plans: dict[int, tuple[weakref.ref, tuple]] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table registered under ``name``."""
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, schema, counter=self.counter)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table; raises :class:`SchemaError` when absent."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r}; have {sorted(self.tables)}"
            ) from None

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(
        self,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int] | None = None,
        substitutions: Mapping[str, Sequence[tuple]] | None = None,
        profile: bool = False,
    ) -> QueryResult:
        """Run a query and materialize its result.

        Parameters
        ----------
        spec:
            The logical query.
        snapshot_lsns:
            Optional per-*alias* LSNs: read that table as of the given
            modification number instead of "now".  This is how incremental
            maintenance reads base tables at the state the view has
            incorporated.
        substitutions:
            Optional per-alias row lists replacing a table's contents
            entirely (rows must match the table's schema width).  This is
            how maintenance evaluates ``Q`` with a delta batch substituted
            for a base table.
        profile:
            ``True`` attaches a per-operator attribution tree to the
            result as :attr:`QueryResult.profile`.  Without it a query
            profiles only while someone wants ``profile`` events
            (:mod:`repro.obs.events`; ``--profile``,
            :func:`repro.obs.attrib.set_profile_sink`).  Profiling changes
            **no** simulated charges.
        """
        prof = None
        if profile or events.wanted("profile"):
            view, round_, _ = events.current_step()
            prof = attrib.QueryProfile(
                self.counter.model,
                query=self._describe(spec),
                view=view,
                round=round_,
            )
            prof.start(self.counter)
        recorder = obs.get_recorder()
        if recorder is None and prof is None:
            return self._execute_plan(spec, snapshot_lsns, substitutions, None)
        wall_start = time.perf_counter()
        if recorder is None:
            result = self._execute_plan(
                spec, snapshot_lsns, substitutions, prof
            )
        else:
            sim_start = self.counter.elapsed_ms()
            with obs.trace("engine.execute", base=spec.base_table) as span:
                result = self._execute_plan(
                    spec, snapshot_lsns, substitutions, prof
                )
                span.set(rows_out=len(result.rows))
            recorder.counter("engine.queries")
            recorder.counter("engine.rows_out", len(result.rows))
            recorder.observe(
                "engine.execute.sim_ms", self.counter.elapsed_ms() - sim_start
            )
        if prof is not None:
            prof.finish(
                rows_out=len(result.rows),
                wall_ms=(time.perf_counter() - wall_start) * 1e3,
            )
            result.profile = prof
            events.emit("profile", prof)
        return result

    @staticmethod
    def _describe(spec: QuerySpec) -> str:
        """A short human label for a query (profile headers)."""
        label = spec.base_table
        for join in spec.joins:
            label += f" ⋈ {join.table}"
        if spec.aggregate is not None:
            label += f" → {spec.aggregate.func.upper()}"
        return label

    def _execute_plan(
        self,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int] | None,
        substitutions: Mapping[str, Sequence[tuple]] | None,
        prof: "attrib.QueryProfile | None",
    ) -> QueryResult:
        self.counter.charge("startups")
        plan = self._plan(spec, snapshot_lsns, substitutions)
        if prof is not None:
            attrib.attach_to_plan(plan, prof)

        columns = tuple(plan.layout)
        rows = self._pull(plan)
        if spec.distinct:
            # Order-preserving dedup; one hash operation per input row.
            self.counter.charge("hash_probes", len(rows))
            rows = list(dict.fromkeys(rows))
        if spec.order_by:
            rows = self._apply_order(rows, spec.order_by, plan.layout)
        if spec.limit is not None:
            rows = rows[: spec.limit]
        return QueryResult(rows=rows, columns=columns)

    def _plan(
        self,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int] | None,
        substitutions: Mapping[str, Sequence[tuple]] | None,
    ) -> Operator:
        """The operator tree ``execute`` pulls and ``explain`` prints.

        Building it charges nothing: every operator pays when pulled.
        """
        snapshot_lsns = snapshot_lsns or {}
        substitutions = substitutions or {}
        stages, pending = self.column_plan(spec)
        if pending:
            unresolved = [repr(f) for f in pending]
            raise SchemaError(f"filters reference unknown columns: {unresolved}")

        plan: Operator | None = None
        for stage, join in zip(stages, (None, *spec.joins)):
            keep = stage.keeps[0]
            if join is None:
                plan = self._source(
                    spec.base_alias, spec.base_table,
                    snapshot_lsns, substitutions, keep,
                )
            elif join.alias in substitutions:
                right = RowSource(
                    substitutions[join.alias],
                    self.table(join.table).schema.names,
                    join.alias,
                    self.counter,
                )
                plan = HashJoin(
                    plan, right, join.left_column,
                    f"{join.alias}.{join.right_column}", keep=keep,
                )
            else:
                snapshot = self.table(join.table).snapshot(
                    snapshot_lsns.get(join.alias)
                )
                if snapshot.has_index(join.right_column):
                    plan = IndexNestedLoopJoin(
                        plan, snapshot, join.alias,
                        join.left_column, join.right_column, keep=keep,
                    )
                else:
                    plan = HashJoin(
                        plan, SeqScan(snapshot, join.alias, self.counter),
                        join.left_column,
                        f"{join.alias}.{join.right_column}", keep=keep,
                    )
            for (predicate, _), keep in zip(stage.filters, stage.keeps[1:]):
                plan = Filter(plan, predicate, keep)

        if spec.aggregate is not None:
            agg = spec.aggregate
            plan = Aggregate(plan, agg.func, agg.value, agg.group_by)
        elif spec.projection is not None:
            plan = Project(plan, spec.projection)
        return plan

    def _pull(self, plan: Operator) -> list[tuple]:
        """Drain a plan's output into one row list."""
        rows: list[tuple] = []
        n_blocks = 0
        for block in plan.blocks(self.block_size):
            n_blocks += 1
            rows.extend(block.rows())
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("engine.block.blocks", n_blocks)
            recorder.counter("engine.block.rows_out", len(rows))
            if n_blocks:
                fill = len(rows) / (n_blocks * self.block_size)
                recorder.observe("engine.block.fill", fill)
        return rows

    def _apply_order(self, rows, order_by, layout):
        """Sort the final rows by the ORDER BY keys (stable, last key
        applied first), charging one sort item per row per key."""
        for order in reversed(order_by):
            pos = resolve_column(order.column, layout)
            self.counter.charge("sort_items", len(rows))
            rows = sorted(
                rows, key=lambda row: row[pos], reverse=order.descending
            )
        return rows

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def explain(
        self,
        spec: QuerySpec,
        substitutions: Mapping[str, Sequence[tuple]] | None = None,
        analyze: bool = False,
        snapshot_lsns: Mapping[str, int] | None = None,
    ) -> str:
        """The operator tree ``execute`` would run, as text.

        Plain EXPLAIN builds that tree and renders it with EXPLAIN
        ANALYZE's labels, without pulling it -- so without charging
        anything, and leaving the snapshot each table retains for its
        next read as it was; the root line adds DISTINCT, ORDER BY and
        LIMIT, which run on the pulled rows.

        With ``analyze=True`` the query is **executed** (charging the
        counter exactly as a plain ``execute`` would) and the rendered
        tree carries per-operator actuals: rows and blocks out, wall
        time and attributed simulated charges.
        """
        if analyze:
            result = self.execute(
                spec,
                snapshot_lsns=snapshot_lsns,
                substitutions=substitutions,
                profile=True,
            )
            return attrib.render_profile(result.profile)
        held = [(t, t._retained) for t in self.tables.values()]
        try:
            plan = self._plan(spec, snapshot_lsns, substitutions)
        finally:
            for table, retained in held:
                table._retained = retained
        finish = ["Distinct"] if spec.distinct else []
        if spec.order_by:
            keys = ", ".join(
                f"{o.column} {'DESC' if o.descending else 'ASC'}"
                for o in spec.order_by
            )
            finish.append(f"Sort({keys})")
        if spec.limit is not None:
            finish.append(f"Limit({spec.limit})")
        return attrib.render_plan(plan, self._describe(spec), " ".join(finish))

    # ------------------------------------------------------------------
    # Planner internals
    # ------------------------------------------------------------------

    def _source(
        self,
        alias: str,
        table_name: str,
        snapshot_lsns: Mapping[str, int],
        substitutions: Mapping[str, Sequence[tuple]],
        keep: Sequence[str],
    ) -> Operator:
        table = self.table(table_name)
        if alias in substitutions:
            # Handed through row-major and whole: nothing is assembled
            # here, so there is nothing to prune.
            return RowSource(
                substitutions[alias], table.schema.names, alias, self.counter
            )
        snapshot = table.snapshot(snapshot_lsns.get(alias))
        return SeqScan(snapshot, alias, self.counter, keep)

    def column_plan(
        self, spec: QuerySpec
    ) -> tuple[list[Stage], list[Expression]]:
        """The plan of ``spec`` by name: one :class:`Stage` per table,
        and the filters whose columns never resolved.

        Worked out once per spec object (while it lives): which snapshot
        or delta batch a query reads changes per execution, what its
        operators emit does not.
        """
        key = id(spec)
        entry = self._column_plans.get(key)
        if entry is not None and entry[0]() is spec:
            return entry[1]
        layout, stages, pending = self._place_filters(spec)
        self._prune(spec, layout, stages)
        plans = self._column_plans
        plans[key] = (
            weakref.ref(spec, lambda _: plans.pop(key, None)),
            (stages, pending),
        )
        return stages, pending

    def _place_filters(
        self, spec: QuerySpec
    ) -> tuple[dict[str, int], list[Stage], list[Expression]]:
        """Walk the join chain by name, pushing every filter down to the
        earliest step where all its columns resolve.

        Returns the full (unpruned) layout of the whole join, the stages
        (their ``keeps`` still empty), and the filters never placed.
        """
        layout: dict[str, int] = {}
        stages: list[Stage] = []
        pending = list(spec.filters)
        for alias, join in zip(spec.aliases, (None, *spec.joins)):
            key = None
            if join is not None:
                key = resolve_column(join.left_column, layout)
            left_width = len(layout)
            for name in self.table(spec.table_of(alias)).schema.names:
                layout[f"{alias}.{name}"] = len(layout)
            ready, still_pending = [], []
            for predicate in pending:
                try:
                    reads = [
                        resolve_column(name, layout)
                        for name in predicate.references()
                    ]
                except SchemaError:
                    still_pending.append(predicate)
                else:
                    ready.append((predicate, reads))
            pending = still_pending
            stages.append(Stage(key, left_width, ready, keeps=[]))
        return layout, stages, pending

    @staticmethod
    def _prune(
        spec: QuerySpec, layout: Mapping[str, int], stages: list[Stage]
    ) -> None:
        """Fill in each stage's ``keeps``: walking the plan backwards, the
        columns something downstream of each emit point still reads.

        Every name is resolved against ``layout``, the full layout of the
        whole join, so a bare name that two tables share is ambiguous
        even where pruning would have dropped one of them.
        """
        if spec.aggregate is not None:
            agg = spec.aggregate
            final = [*agg.value.references(), *agg.group_by]
        elif spec.projection is not None:
            final = spec.projection
        elif spec.reads is not None:
            final = [*spec.reads, *(order.column for order in spec.order_by)]
        else:
            final = layout  # a plain join result: every column
        names = list(layout)
        needed = {resolve_column(name, layout) for name in final}
        for stage in reversed(stages):
            keeps = []
            for _, reads in reversed(stage.filters):
                keeps.append([names[pos] for pos in sorted(needed)])
                needed = needed.union(reads)
            keeps.append([names[pos] for pos in sorted(needed)])
            stage.keeps = keeps[::-1]
            if stage.key is not None:
                needed = {pos for pos in needed if pos < stage.left_width}
                needed.add(stage.key)

    def __repr__(self) -> str:
        return f"Database(tables={sorted(self.tables)})"
