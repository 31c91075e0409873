"""The oracle: what a table and a view are, with no engine code.

:class:`Model` is a table written row by row, nothing batched: a list of
versions ``[values, xmin, xmax]``, a list of ``(old, new)`` modifications
and the charges the writes make.  :func:`oracle_rows` evaluates a
:class:`~repro.engine.query.QuerySpec` over models' visible rows by nested
loops and a ``dict`` group-by, walking expressions with its own
:func:`oracle_value` (kept apart from ``compile_block`` on purpose);
:func:`oracle_contents` is a view's contents by the same rule.  Nothing
here imports an engine operator or reads a snapshot, so a test that holds
the engine to it does not compare the engine with itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.engine.expr import BinOp, BoolOp, ColumnRef, Comparison, Const, Not
from repro.engine.query import QuerySpec


class BadRid(Exception):
    """A row id that names no live version at its turn."""


class Model:
    """One table as two lists."""

    def __init__(
        self, names: Sequence[str], floats: Sequence[str] = (),
        index_count: int = 0,
    ):
        self.names = tuple(names)
        self.floats = frozenset(self.names.index(c) for c in floats)
        self.versions: list[list] = []  # [values, xmin, xmax]
        self.log: list[tuple] = []  # (old, new)
        self.index_count = index_count
        self.row_writes = 0
        self.index_maintains = 0

    @property
    def current_lsn(self) -> int:
        return len(self.log)

    def _row(self, values) -> tuple:
        return tuple(
            float(v) if pos in self.floats else v for pos, v in enumerate(values)
        )

    def _logged(self, old, new) -> int:
        self.log.append((old, new))
        self._charge((old is not None) + (new is not None))
        return len(self.log)

    def _charge(self, images: int) -> None:
        self.row_writes += images
        self.index_maintains += images * self.index_count

    def _live(self, rid) -> list:
        if not 0 <= rid < len(self.versions) or self.versions[rid][2] is not None:
            raise BadRid(rid)
        return self.versions[rid]

    def insert(self, row) -> None:
        row = self._row(row)
        self.versions.append([row, self._logged(None, row), None])

    def delete(self, rid) -> None:
        version = self._live(rid)
        version[2] = self._logged(version[0], None)

    def update(self, rid, changes: Mapping[str, object]) -> None:
        version = self._live(rid)
        row = list(version[0])
        for column, value in changes.items():
            row[self.names.index(column)] = value
        row = self._row(row)
        lsn = self._logged(version[0], row)
        version[2] = lsn
        self.versions.append([row, lsn, None])

    def live_rids(self) -> list[int]:
        return [rid for rid, v in enumerate(self.versions) if v[2] is None]

    def rows_at(self, lsn: int | None = None) -> list[tuple]:
        if lsn is None:
            lsn = len(self.log)
        return [
            values
            for values, xmin, xmax in self.versions
            if xmin <= lsn and (xmax is None or xmax > lsn)
        ]

    def charges(self) -> dict[str, int]:
        charged = {
            "row_writes": self.row_writes,
            "index_maintains": self.index_maintains,
        }
        return {field: n for field, n in charged.items() if n}


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


def _sequential_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


_FOLDS = {
    "count": len,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
    "sum": lambda vs: _sequential_sum(vs) if vs else None,
    "avg": lambda vs: _sequential_sum(vs) / len(vs) if vs else None,
}


_BINARY = {
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": lambda a, b: a / b,
}


def oracle_value(expr, row, layout):
    """``expr`` on one row, by walking the tree."""
    if isinstance(expr, ColumnRef):
        if expr.name in layout:
            return row[layout[expr.name]]
        (pos,) = [p for n, p in layout.items() if n.endswith("." + expr.name)]
        return row[pos]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Comparison, BinOp)):
        return _BINARY[expr.op](
            oracle_value(expr.left, row, layout),
            oracle_value(expr.right, row, layout),
        )
    if isinstance(expr, BoolOp):
        combine = all if expr.op == "and" else any
        return combine(oracle_value(e, row, layout) for e in expr.operands)
    if isinstance(expr, Not):
        return not oracle_value(expr.operand, row, layout)
    raise TypeError(f"the oracle does not evaluate {expr!r}")


def oracle_rows(
    tables: Mapping[str, Model], spec: QuerySpec, lsns=None
) -> list[tuple]:
    """Evaluate ``spec`` over the models' visible rows, each alias at its
    LSN in ``lsns`` (default: the model's newest)."""
    assert not spec.order_by and spec.limit is None

    def visible(alias, table_name):
        model = tables[table_name]
        rows = model.rows_at((lsns or {}).get(alias))
        return [f"{alias}.{name}" for name in model.names], rows

    names, rows = visible(spec.base_alias, spec.base_table)
    for join in spec.joins:
        right_names, right_rows = visible(join.alias, join.table)
        lpos = names.index(join.left_column)
        rpos = right_names.index(f"{join.alias}.{join.right_column}")
        rows = [l + r for l in rows for r in right_rows if l[lpos] == r[rpos]]
        names = names + right_names
    layout = {name: pos for pos, name in enumerate(names)}
    for predicate in spec.filters:
        rows = [row for row in rows if oracle_value(predicate, row, layout)]
    if spec.aggregate is not None:
        agg = spec.aggregate
        groups = {} if agg.group_by else {(): []}
        for row in rows:
            key = tuple(row[layout[g]] for g in agg.group_by)
            groups.setdefault(key, []).append(
                oracle_value(agg.value, row, layout)
            )
        fold = _FOLDS[agg.func]
        rows = [key + (fold(groups[key]),) for key in sorted(groups, key=repr)]
    elif spec.projection is not None:
        rows = [tuple(row[layout[c]] for c in spec.projection) for row in rows]
    return list(dict.fromkeys(rows)) if spec.distinct else rows


def oracle_contents(tables: Mapping[str, Model], spec: QuerySpec, lsns) -> dict:
    """A view's contents, per the oracle: an SPJ view's rows with their
    multiplicities; an aggregate view's groups, none of them empty."""
    rows = oracle_rows(tables, spec, lsns)
    if spec.aggregate is None:
        return dict(Counter(rows))
    counting = spec.aggregate.func == "count"
    return {
        row[:-1]: row[-1]
        for row in rows
        if row[-1] is not None and not (counting and row[-1] == 0)
    }
