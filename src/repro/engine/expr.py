"""Scalar expressions and predicates.

Expressions form a small tree (column references, constants, comparisons,
boolean connectives, arithmetic).  They are *compiled* against a layout
-- a mapping from qualified column names like ``"S.suppkey"`` to tuple
positions -- into closures over whole :class:`~repro.engine.block.RowBlock`
columns (:meth:`Expression.compile_block`), so evaluating a block costs
one call per tree node, not a tree walk per row.  That is the only
evaluator: a single row is a block of one.

Qualified names: operators tag every column with its table alias.  A bare
``ColumnRef("suppkey")`` resolves if exactly one alias exposes that column;
ambiguity is a :class:`~repro.engine.errors.SchemaError`.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping

from repro.engine.errors import SchemaError

if TYPE_CHECKING:  # circular import guard; block.py is expression-free
    from repro.engine.block import RowBlock

#: A compiled block evaluator: RowBlock -> list of per-row values.
BlockEvaluator = Callable[["RowBlock"], list]

_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class _Identity:
    """A key equal only to the key of the very same object.

    Holds the object, so its ``id`` cannot be reused while the key lives.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Identity) and other.obj is self.obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __repr__(self) -> str:
        return f"<identity of {self.obj!r}>"


class Expression(ABC):
    """Base class for scalar expressions."""

    @abstractmethod
    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        """Compile to a closure evaluating this expression on a whole
        :class:`~repro.engine.block.RowBlock`, returning one value per row.

        ``layout`` maps qualified column names to tuple positions.  Column
        resolution happens here, once per compile -- the returned closure
        does no per-row dictionary work (a column reference returns the
        block's column list itself, zero-copy, so callers must not mutate
        what an evaluator returns).
        """

    @abstractmethod
    def references(self) -> frozenset[str]:
        """Column names (as written, possibly unqualified) this expression reads."""

    def key(self) -> Hashable:
        """A structural key: two expressions with equal keys compute the
        same value on every row (``==`` cannot say so, it builds a
        :class:`Comparison`).

        The node types of this module key by node type, operator and
        operand keys (a subclass of one that adds state must add it to
        the key).  This default is the key of the object itself, so a
        subclass that does not define its own is equal to nothing else.
        """
        return _Identity(self)

    # Operator sugar ---------------------------------------------------

    def __eq__(self, other: object):  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other: object):  # type: ignore[override]
        return Comparison("!=", self, _wrap(other))

    def __lt__(self, other):
        return Comparison("<", self, _wrap(other))

    def __le__(self, other):
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other):
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other):
        return Comparison(">=", self, _wrap(other))

    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other))

    def __hash__(self) -> int:  # expressions are identity-hashed
        return id(self)


def _wrap(value: Any) -> Expression:
    """Lift a plain Python value into a :class:`Const`."""
    if isinstance(value, Expression):
        return value
    return Const(value)


class ColumnRef(Expression):
    """A reference to a column, optionally qualified as ``alias.column``."""

    def __init__(self, name: str):
        if not name:
            raise SchemaError("empty column reference")
        self.name = name

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        pos = resolve_column(self.name, layout)
        return lambda block: block.column(pos)

    def references(self) -> frozenset[str]:
        return frozenset([self.name])

    def key(self) -> Hashable:
        return (type(self), self.name)

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Const(Expression):
    """A literal value."""

    def __init__(self, value: Any):
        self.value = value

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        value = self.value
        return lambda block: [value] * len(block)

    def references(self) -> frozenset[str]:
        return frozenset()

    def key(self) -> Hashable:
        # The value's type is part of the key: 1 == 1.0 == True, and they
        # do not compute the same.  An unhashable value cannot be compared
        # through a dict, so such a constant equals only itself.
        try:
            hash(self.value)
        except TypeError:
            return _Identity(self)
        return (type(self), type(self.value), self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Comparison(Expression):
    """``left <op> right`` for a relational comparison operator."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARISONS:
            raise SchemaError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        fn = _COMPARISONS[self.op]
        left = self.left.compile_block(layout)
        right = self.right.compile_block(layout)
        return lambda block: list(map(fn, left(block), right(block)))

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()

    def key(self) -> Hashable:
        return (type(self), self.op, self.left.key(), self.right.key())

    def equijoin_columns(self) -> tuple[str, str] | None:
        """``(left_col, right_col)`` when this is ``col = col``, else None.

        The planner uses this to recognize equi-join predicates eligible
        for index-nested-loop or hash joins.
        """
        if (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        ):
            return (self.left.name, self.right.name)
        return None

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BinOp(Expression):
    """Arithmetic on two sub-expressions."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITHMETIC:
            raise SchemaError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        fn = _ARITHMETIC[self.op]
        left = self.left.compile_block(layout)
        right = self.right.compile_block(layout)
        return lambda block: list(map(fn, left(block), right(block)))

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()

    def key(self) -> Hashable:
        return (type(self), self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolOp(Expression):
    """``AND`` / ``OR`` over two or more predicates."""

    def __init__(self, op: str, operands: list[Expression]):
        if op not in ("and", "or"):
            raise SchemaError(f"unknown boolean operator {op!r}")
        if len(operands) < 2:
            raise SchemaError(f"{op} needs at least two operands")
        self.op = op
        self.operands = list(operands)

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        compiled = [e.compile_block(layout) for e in self.operands]
        combine = all if self.op == "and" else any
        return lambda block: [
            combine(values) for values in zip(*(fn(block) for fn in compiled))
        ]

    def references(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for e in self.operands:
            out |= e.references()
        return out

    def key(self) -> Hashable:
        return (type(self), self.op, tuple(e.key() for e in self.operands))

    def __repr__(self) -> str:
        sep = f" {self.op} "
        return "(" + sep.join(repr(e) for e in self.operands) + ")"


class Not(Expression):
    """Logical negation."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def compile_block(self, layout: Mapping[str, int]) -> BlockEvaluator:
        fn = self.operand.compile_block(layout)
        return lambda block: [not value for value in fn(block)]

    def references(self) -> frozenset[str]:
        return self.operand.references()

    def key(self) -> Hashable:
        return (type(self), self.operand.key())

    def __repr__(self) -> str:
        return f"not_({self.operand!r})"


# ----------------------------------------------------------------------
# Construction helpers (the public expression-building vocabulary)
# ----------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Reference a column: ``col("S.suppkey")`` or bare ``col("suppkey")``."""
    return ColumnRef(name)


def lit(value: Any) -> Const:
    """A literal constant."""
    return Const(value)


def and_(*operands: Expression) -> Expression:
    """Conjunction of one or more predicates."""
    if not operands:
        raise SchemaError("and_() needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    return BoolOp("and", list(operands))


def or_(*operands: Expression) -> Expression:
    """Disjunction of one or more predicates."""
    if not operands:
        raise SchemaError("or_() needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    return BoolOp("or", list(operands))


def not_(operand: Expression) -> Not:
    """Negation of a predicate."""
    return Not(operand)


def resolve_column(name: str, layout: Mapping[str, int]) -> int:
    """Resolve a possibly unqualified column name to a tuple position.

    Qualified names must match exactly; bare names match any ``alias.name``
    entry and must be unambiguous.
    """
    if name in layout:
        return layout[name]
    if "." not in name:
        matches = [
            pos for qualified, pos in layout.items()
            if qualified.rpartition(".")[2] == name
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column {name!r} in layout {list(layout)}")
    raise SchemaError(f"unknown column {name!r} in layout {list(layout)}")
