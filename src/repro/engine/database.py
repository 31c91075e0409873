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
* filters are pushed down to the earliest point where their columns exist.

This mirrors what a real optimizer would do to these queries and is the
mechanism that turns physical design (which tables are indexed) into the
asymmetric delta-processing cost functions the paper exploits.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro import obs
from repro.engine.aggregate import Aggregate
from repro.engine.block import DEFAULT_BLOCK_SIZE
from repro.engine.costmodel import CostModel, OperationCounter
from repro.engine.errors import SchemaError
from repro.engine.expr import Expression, resolve_column
from repro.engine.join import HashJoin, IndexNestedLoopJoin
from repro.engine.operators import Filter, Operator, Project, RowSource, SeqScan
from repro.engine.query import QueryResult, QuerySpec
from repro.engine.table import Table
from repro.engine.types import Schema
from repro.obs import attrib


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
        cost_model: CostModel | None = None,
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
        self.counter = OperationCounter(model=cost_model or CostModel())
        self.tables: dict[str, Table] = {}
        self.block_size = block_size

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
        profile: bool | None = None,
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
            result as :attr:`QueryResult.profile`.  ``None`` (the default)
            profiles only while a global profile sink is installed
            (:func:`repro.obs.attrib.set_profile_sink`); ``False`` never
            profiles.  Profiling changes **no** simulated charges.
        """
        snapshot_lsns = snapshot_lsns or {}
        substitutions = substitutions or {}
        prof = None
        if profile or (profile is None and attrib.sink_active()):
            view, round_ = attrib.current_maintenance()
            prof = attrib.QueryProfile(
                self.counter.model,
                query=self._describe(spec),
                view=view,
                round=round_,
            )
        recorder = obs.get_recorder()
        if recorder is None and prof is None:
            return self._execute(spec, snapshot_lsns, substitutions)
        wall_start = time.perf_counter()
        if recorder is None:
            result = self._execute(spec, snapshot_lsns, substitutions, prof)
        else:
            sim_start = self.counter.elapsed_ms()
            with obs.trace("engine.execute", base=spec.base_table) as span:
                result = self._execute(
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
            attrib.emit(prof)
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

    def _execute(
        self,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int],
        substitutions: Mapping[str, Sequence[tuple]],
        prof: "attrib.QueryProfile | None" = None,
    ) -> QueryResult:
        if prof is None:
            return self._execute_plan(spec, snapshot_lsns, substitutions, None)
        with attrib.capturing(prof):
            return self._execute_plan(spec, snapshot_lsns, substitutions, prof)

    def _execute_plan(
        self,
        spec: QuerySpec,
        snapshot_lsns: Mapping[str, int],
        substitutions: Mapping[str, Sequence[tuple]],
        prof: "attrib.QueryProfile | None",
    ) -> QueryResult:
        self.counter.charge("startups")
        if prof is not None:
            prof.root.add("startups", 1)

        plan = self._source(spec, spec.base_alias, spec.base_table,
                            snapshot_lsns, substitutions)
        pending_filters = list(spec.filters)
        plan = self._apply_ready_filters(plan, pending_filters)

        for join in spec.joins:
            inner_table = self.table(join.table)
            substituted = join.alias in substitutions
            if substituted:
                right = RowSource(
                    substitutions[join.alias],
                    inner_table.schema.names,
                    join.alias,
                    self.counter,
                )
                plan = HashJoin(
                    plan, right, join.left_column,
                    f"{join.alias}.{join.right_column}",
                    block_size=self.block_size,
                )
            else:
                snapshot = inner_table.snapshot(snapshot_lsns.get(join.alias))
                if snapshot.has_index(join.right_column):
                    plan = IndexNestedLoopJoin(
                        plan, snapshot, join.alias,
                        join.left_column, join.right_column,
                    )
                else:
                    plan = HashJoin(
                        plan, snapshot, join.left_column,
                        f"{join.alias}.{join.right_column}",
                        alias=join.alias,
                    )
            plan = self._apply_ready_filters(plan, pending_filters)

        if pending_filters:
            unresolved = [repr(f) for f in pending_filters]
            raise SchemaError(f"filters reference unknown columns: {unresolved}")

        if spec.aggregate is not None:
            agg = spec.aggregate
            plan = Aggregate(plan, agg.func, agg.value, agg.group_by)
        elif spec.projection is not None:
            plan = Project(plan, spec.projection)

        if prof is not None:
            attrib.attach_to_plan(plan, prof)

        columns = tuple(
            sorted(plan.layout, key=plan.layout.__getitem__)
        )
        rows = self._pull(plan)
        if spec.distinct:
            # Order-preserving dedup; one hash operation per input row.
            self.counter.charge("hash_probes", len(rows))
            if prof is not None:
                prof.root.add("hash_probes", len(rows))
            rows = list(dict.fromkeys(rows))
        if spec.order_by:
            rows = self._apply_order(rows, spec.order_by, plan.layout)
        if spec.limit is not None:
            rows = rows[: spec.limit]
        return QueryResult(rows=rows, columns=columns)

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
        prof = attrib.active_profile()
        for order in reversed(order_by):
            pos = resolve_column(order.column, layout)
            self.counter.charge("sort_items", len(rows))
            if prof is not None:
                prof.root.add("sort_items", len(rows))
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
        """A textual description of the physical plan ``execute`` would run.

        Mirrors the planner's decisions (access paths, join algorithms,
        filter placement) without executing anything -- in particular
        without paying hash-join build costs.

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
        substitutions = substitutions or {}
        lines: list[str] = []
        indent = 0

        def emit(text: str) -> None:
            lines.append("  " * indent + text)

        pending = list(spec.filters)

        def emit_ready_filters(layout: dict[str, int]) -> None:
            nonlocal pending
            still = []
            for predicate in pending:
                if self._resolvable(predicate, layout):
                    emit(f"Filter: {predicate!r}")
                else:
                    still.append(predicate)
            pending = still

        base_table = self.table(spec.base_table)
        layout = {
            f"{spec.base_alias}.{name}": i
            for i, name in enumerate(base_table.schema.names)
        }
        if spec.base_alias in substitutions:
            emit(
                f"RowSource({spec.base_alias} := delta of "
                f"{spec.base_table}, {len(substitutions[spec.base_alias])} rows)"
            )
        else:
            emit(
                f"SeqScan({spec.base_table} AS {spec.base_alias}, "
                f"~{base_table.live_count} rows)"
            )
        emit_ready_filters(layout)

        for join in spec.joins:
            inner = self.table(join.table)
            inner_layout = {
                f"{join.alias}.{name}": i
                for i, name in enumerate(inner.schema.names)
            }
            width = len(layout)
            layout.update(
                {name: width + pos for name, pos in inner_layout.items()}
            )
            indent += 1
            if join.alias in substitutions:
                emit(
                    f"HashJoin(build delta {join.alias}, "
                    f"{len(substitutions[join.alias])} rows) ON "
                    f"{join.left_column} = {join.alias}.{join.right_column}"
                )
            elif inner.index_on(join.right_column) is not None:
                emit(
                    f"IndexNestedLoopJoin({join.table} AS {join.alias} via "
                    f"index on {join.right_column}) ON "
                    f"{join.left_column} = {join.alias}.{join.right_column}"
                )
            else:
                emit(
                    f"HashJoin(build SeqScan({join.table} AS {join.alias}, "
                    f"~{inner.live_count} rows)) ON "
                    f"{join.left_column} = {join.alias}.{join.right_column}"
                )
            emit_ready_filters(layout)

        indent += 1
        if spec.aggregate is not None:
            group = (
                f" GROUP BY {', '.join(spec.aggregate.group_by)}"
                if spec.aggregate.group_by
                else ""
            )
            emit(
                f"Aggregate({spec.aggregate.func.upper()}"
                f"({spec.aggregate.value!r})){group}"
            )
        elif spec.projection is not None:
            emit(f"Project({', '.join(spec.projection)})")
        for order in spec.order_by:
            emit(
                f"Sort({order.column} "
                f"{'DESC' if order.descending else 'ASC'})"
            )
        if spec.limit is not None:
            emit(f"Limit({spec.limit})")
        if pending:
            emit(f"!! unresolved filters: {[repr(f) for f in pending]}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Planner internals
    # ------------------------------------------------------------------

    def _source(
        self,
        spec: QuerySpec,
        alias: str,
        table_name: str,
        snapshot_lsns: Mapping[str, int],
        substitutions: Mapping[str, Sequence[tuple]],
    ) -> Operator:
        table = self.table(table_name)
        if alias in substitutions:
            return RowSource(
                substitutions[alias], table.schema.names, alias, self.counter
            )
        snapshot = table.snapshot(snapshot_lsns.get(alias))
        return SeqScan(snapshot, alias, self.counter)

    def _apply_ready_filters(
        self, plan: Operator, pending: list[Expression]
    ) -> Operator:
        """Push down every pending filter whose columns are now available."""
        still_pending = []
        for predicate in pending:
            if self._resolvable(predicate, plan.layout):
                plan = Filter(plan, predicate)
            else:
                still_pending.append(predicate)
        pending[:] = still_pending
        return plan

    @staticmethod
    def _resolvable(predicate: Expression, layout: Mapping[str, int]) -> bool:
        try:
            for name in predicate.references():
                resolve_column(name, layout)
        except SchemaError:
            return False
        return True

    def __repr__(self) -> str:
        return f"Database(tables={sorted(self.tables)})"
