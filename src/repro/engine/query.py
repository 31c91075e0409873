"""Logical query descriptions (select-project-join plus one aggregate).

A :class:`QuerySpec` captures the class of queries the paper maintains:
left-deep equi-join chains with conjunctive filters, optional projection,
and an optional aggregate -- e.g. the TPC-R experiment view::

    SELECT MIN(PS.supplycost)
    FROM PartSupp PS, Supplier S, Nation N, Region R
    WHERE S.suppkey = PS.suppkey AND S.nationkey = N.nationkey
      AND N.regionkey = R.regionkey AND R.name = 'MIDDLE EAST'

becomes::

    QuerySpec(
        base_alias="PS", base_table="partsupp",
        joins=(
            JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),
            JoinSpec("N", "nation", "S.nationkey", "nationkey"),
            JoinSpec("R", "region", "N.regionkey", "regionkey"),
        ),
        filters=(col("R.name") == lit("MIDDLE EAST"),),
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )

The join order is the declaration order (left-deep); the physical join
algorithm per step is chosen by :class:`~repro.engine.database.Database`
from available indexes -- the asymmetry knob of the whole reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.engine.errors import SchemaError
from repro.engine.expr import Expression


@dataclass(frozen=True)
class JoinSpec:
    """One step of a left-deep equi-join chain.

    ``left_column`` is a qualified column of the already-joined prefix;
    ``right_column`` is a bare column of the table being joined in.
    """

    alias: str
    table: str
    left_column: str
    right_column: str

    def __post_init__(self) -> None:
        if "." in self.right_column:
            raise SchemaError(
                f"right_column must be a bare column name, got "
                f"{self.right_column!r}"
            )


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregate over the join result: ``func(value) GROUP BY group_by``."""

    func: str
    value: Expression
    group_by: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrderSpec:
    """One ORDER BY key: a column of the *final output* and a direction.

    Ordering is applied after projection/aggregation, so the key must name
    a projected column (or a group-by / aggregate output column); ordering
    by a column the projection drops is a :class:`SchemaError`.
    """

    column: str
    descending: bool = False


@dataclass(frozen=True)
class QuerySpec:
    """A select-project-join(-aggregate) query, with optional ordering."""

    base_alias: str
    base_table: str
    joins: tuple[JoinSpec, ...] = ()
    filters: tuple[Expression, ...] = ()
    projection: tuple[str, ...] | None = None
    aggregate: AggregateSpec | None = None
    order_by: tuple[OrderSpec, ...] = ()
    limit: int | None = None
    distinct: bool = False
    #: The columns the consumer of an un-projected, un-aggregated result
    #: goes on to read.  The result holds at least these (see its
    #: ``columns``); the engine is free to leave any other out, with no
    #: ``Project`` operator and no charge.  Incremental maintenance derives
    #: it from the view definition for its delta queries.
    reads: tuple[str, ...] | None = None
    #: All table aliases, base first, in join order (derived; every
    #: maintenance round of every view reads it).
    aliases: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        aliases = [self.base_alias] + [j.alias for j in self.joins]
        if len(set(aliases)) != len(aliases):
            raise SchemaError(f"duplicate aliases in query: {aliases}")
        object.__setattr__(self, "aliases", tuple(aliases))
        if self.projection is not None and self.aggregate is not None:
            raise SchemaError("use aggregate.group_by instead of projection")
        if self.limit is not None and self.limit < 0:
            raise SchemaError(f"LIMIT must be non-negative, got {self.limit}")
        if self.reads is not None and (
            self.projection is not None
            or self.aggregate is not None
            or self.distinct
        ):
            raise SchemaError(
                "reads describes a plain join result; it cannot be combined "
                "with projection, aggregate or distinct"
            )

    def key(self) -> Hashable:
        """A structural key: specs with equal keys are the same query.

        ``==`` cannot say so: it compares ``filters`` with the
        expressions' overloaded ``==``, which builds a (truthy)
        comparison node.  Built from :meth:`Expression.key`, so a spec
        holding an expression that keys by identity equals only itself.
        """
        def seq(values):  # the fields are tuples by annotation only
            return None if values is None else tuple(values)

        agg = self.aggregate
        return (
            self.base_alias,
            self.base_table,
            seq(self.joins),
            tuple(f.key() for f in self.filters),
            seq(self.projection),
            None if agg is None
            else (agg.func, agg.value.key(), seq(agg.group_by)),
            seq(self.order_by),
            self.limit,
            self.distinct,
            seq(self.reads),
        )

    def table_of(self, alias: str) -> str:
        """Table name bound to ``alias``."""
        if alias == self.base_alias:
            return self.base_table
        for j in self.joins:
            if j.alias == alias:
                return j.table
        raise SchemaError(f"unknown alias {alias!r} in query")

    def rebased(self, new_base_alias: str) -> "QuerySpec":
        """The same query re-rooted so ``new_base_alias`` drives the join.

        Incremental maintenance computes ``Q`` with a delta substituted for
        one base table; making that table the outer (driving) relation lets
        small delta batches exploit indexes on the inner tables.  The chain
        is re-derived by walking join predicates outward from the new base
        (the join graph of an equi-join chain is a tree, so a unique
        re-rooting exists).
        """
        if new_base_alias == self.base_alias:
            return self
        # Build the undirected join graph: edges annotated with the
        # qualified equi-join columns.
        edges: dict[str, list[tuple[str, str, str]]] = {a: [] for a in self.aliases}
        for j in self.joins:
            left_alias = j.left_column.split(".")[0]
            edges[left_alias].append(
                (j.alias, j.left_column, f"{j.alias}.{j.right_column}")
            )
            edges[j.alias].append(
                (left_alias, f"{j.alias}.{j.right_column}", j.left_column)
            )
        if new_base_alias not in edges:
            raise SchemaError(f"unknown alias {new_base_alias!r} in query")
        # BFS from the new base, emitting JoinSpecs in discovery order.
        order: list[str] = [new_base_alias]
        new_joins: list[JoinSpec] = []
        seen = {new_base_alias}
        frontier = [new_base_alias]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for neighbor, near_col, far_col in edges[node]:
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    order.append(neighbor)
                    nxt.append(neighbor)
                    new_joins.append(
                        JoinSpec(
                            alias=neighbor,
                            table=self.table_of(neighbor),
                            left_column=near_col,
                            right_column=far_col.split(".")[1],
                        )
                    )
            frontier = nxt
        if len(order) != len(self.aliases):
            raise SchemaError(
                f"join graph is disconnected; cannot rebase to "
                f"{new_base_alias!r}"
            )
        return QuerySpec(
            base_alias=new_base_alias,
            base_table=self.table_of(new_base_alias),
            joins=tuple(new_joins),
            filters=self.filters,
            projection=self.projection,
            aggregate=self.aggregate,
            order_by=self.order_by,
            limit=self.limit,
            distinct=self.distinct,
            reads=self.reads,
        )


@dataclass
class QueryResult:
    """Materialized query output: rows plus their column names."""

    rows: list[tuple]
    columns: tuple[str, ...]
    #: Per-operator attribution tree (:class:`repro.obs.attrib.QueryProfile`)
    #: when the query ran with ``profile=True`` / an active profile sink;
    #: None otherwise.
    profile: "object | None" = None

    def scalar(self):
        """The single value of a one-row one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SchemaError(
                f"scalar() on a {len(self.rows)}x{len(self.columns)} result"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
