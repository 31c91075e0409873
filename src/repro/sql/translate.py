"""Translation from parsed SQL to an executable :class:`QuerySpec`.

The interesting work is classifying WHERE conjuncts:

* a top-level equality between columns of two *different* aliases is an
  equi-join predicate and becomes part of the join chain;
* everything else (single-alias predicates, constants, disjunctions) stays
  a filter, which the engine's planner pushes down as far as possible.

Join order is a breadth-first walk of the join graph from the first FROM
table -- the same left-deep discipline the engine's planner and the IVM
rebasing machinery assume.  A disconnected join graph (a cross product) is
rejected: nothing in the paper's query class needs one, and accidental
cross products are almost always bugs.
"""

from __future__ import annotations

from repro.engine.expr import BoolOp, Comparison, Expression
from repro.engine.query import AggregateSpec, JoinSpec, OrderSpec, QuerySpec
from repro.sql.errors import SqlError
from repro.sql.parser import SelectStatement, parse_select


def parse_query(text: str) -> QuerySpec:
    """Parse SQL text straight to a :class:`QuerySpec`."""
    return to_query_spec(parse_select(text), text)


def to_query_spec(statement: SelectStatement, text: str = "") -> QuerySpec:
    """Translate a parsed statement into a :class:`QuerySpec`."""
    aliases = [alias for __, alias in statement.tables]
    table_by_alias = {alias: table for table, alias in statement.tables}

    conjuncts = _split_conjuncts(statement.where)
    join_predicates: list[tuple[str, str, str, str]] = []
    filters: list[Expression] = []
    for conjunct in conjuncts:
        classified = _as_join_predicate(conjunct, set(aliases))
        if classified is not None:
            join_predicates.append(classified)
        else:
            _check_alias_references(conjunct, set(aliases), text)
            filters.append(conjunct)

    joins = _order_joins(
        aliases, table_by_alias, join_predicates, text
    )

    aggregate = None
    projection = None
    if statement.aggregate is not None:
        aggregate = AggregateSpec(
            func=statement.aggregate.func,
            value=statement.aggregate.value,
            group_by=tuple(statement.group_by),
        )
    elif statement.projection is not None:
        projection = tuple(statement.projection)

    base_alias = aliases[0]
    return QuerySpec(
        base_alias=base_alias,
        base_table=table_by_alias[base_alias],
        joins=tuple(joins),
        filters=tuple(filters),
        projection=projection,
        aggregate=aggregate,
        order_by=tuple(
            OrderSpec(column=column, descending=descending)
            for column, descending in statement.order_by
        ),
        limit=statement.limit,
        distinct=statement.distinct,
    )


def _split_conjuncts(where: Expression | None) -> list[Expression]:
    """Flatten top-level ANDs into a conjunct list."""
    if where is None:
        return []
    if isinstance(where, BoolOp) and where.op == "and":
        out: list[Expression] = []
        for operand in where.operands:
            out.extend(_split_conjuncts(operand))
        return out
    return [where]


def _alias_of(name: str) -> str | None:
    """The alias part of a qualified column name, if qualified."""
    alias, dot, __ = name.partition(".")
    return alias if dot else None


def _as_join_predicate(
    conjunct: Expression, aliases: set[str]
) -> tuple[str, str, str, str] | None:
    """``(left_alias, left_col, right_alias, right_col)`` for an equi-join
    conjunct between two different aliases, else None."""
    if not isinstance(conjunct, Comparison):
        return None
    pair = conjunct.equijoin_columns()
    if pair is None:
        return None
    left, right = pair
    left_alias, right_alias = _alias_of(left), _alias_of(right)
    if left_alias is None or right_alias is None:
        return None
    if left_alias not in aliases or right_alias not in aliases:
        return None
    if left_alias == right_alias:
        return None  # self-comparison: stays a filter
    return (left_alias, left, right_alias, right)


def _check_alias_references(
    conjunct: Expression, aliases: set[str], text: str
) -> None:
    """Reject filters naming aliases absent from the FROM clause."""
    for name in conjunct.references():
        alias = _alias_of(name)
        if alias is not None and alias not in aliases:
            raise SqlError(
                f"predicate references unknown alias {alias!r}", text
            )


def _order_joins(
    aliases: list[str],
    table_by_alias: dict[str, str],
    join_predicates: list[tuple[str, str, str, str]],
    text: str,
) -> list[JoinSpec]:
    """BFS the join graph from the first table into a left-deep chain."""
    if len(aliases) == 1:
        if join_predicates:
            raise SqlError("join predicate on a single-table query", text)
        return []
    adjacency: dict[str, list[tuple[str, str, str]]] = {
        alias: [] for alias in aliases
    }
    for left_alias, left_col, right_alias, right_col in join_predicates:
        adjacency[left_alias].append((right_alias, left_col, right_col))
        adjacency[right_alias].append((left_alias, right_col, left_col))

    base = aliases[0]
    seen = {base}
    frontier = [base]
    joins: list[JoinSpec] = []
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for neighbor, near_col, far_col in adjacency[node]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                nxt.append(neighbor)
                joins.append(
                    JoinSpec(
                        alias=neighbor,
                        table=table_by_alias[neighbor],
                        left_column=near_col,
                        right_column=far_col.partition(".")[2],
                    )
                )
        frontier = nxt
    missing = [alias for alias in aliases if alias not in seen]
    if missing:
        raise SqlError(
            f"join graph is disconnected: no equi-join predicate reaches "
            f"{missing} (cross products are not supported)",
            text,
        )
    return joins
