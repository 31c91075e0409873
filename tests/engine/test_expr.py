"""Unit tests for the expression/predicate layer."""

import pytest

from repro.engine.block import RowBlock
from repro.engine.errors import SchemaError
from repro.engine.expr import (
    Expression,
    and_,
    col,
    lit,
    not_,
    or_,
    resolve_column,
)

LAYOUT = {"E.a": 0, "E.b": 1, "D.a": 2}


def run(expr, row, layout=None):
    """The expression's value on ``row``: a block of one."""
    layout = layout or LAYOUT
    (value,) = expr.compile_block(layout)(RowBlock.from_rows([row], layout))
    return value


class TestColumnResolution:
    def test_qualified_exact(self):
        assert resolve_column("E.b", LAYOUT) == 1

    def test_bare_unambiguous(self):
        assert resolve_column("b", LAYOUT) == 1

    def test_bare_ambiguous_rejected(self):
        with pytest.raises(SchemaError, match="ambiguous"):
            resolve_column("a", LAYOUT)

    def test_unknown_rejected(self):
        with pytest.raises(SchemaError, match="unknown column"):
            resolve_column("zzz", LAYOUT)


class TestComparisons:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            (col("E.a") == lit(5), True),
            (col("E.a") != lit(5), False),
            (col("E.a") < lit(6), True),
            (col("E.a") <= lit(5), True),
            (col("E.a") > lit(5), False),
            (col("E.a") >= lit(5), True),
        ],
    )
    def test_operators(self, expr, expected):
        assert run(expr, (5, "x", 9)) is expected

    def test_column_to_column(self):
        expr = col("E.a") == col("D.a")
        assert run(expr, (5, "x", 5))
        assert not run(expr, (5, "x", 6))

    def test_equijoin_detection(self):
        join = col("E.a") == col("D.a")
        assert join.equijoin_columns() == ("E.a", "D.a")
        assert (col("E.a") == lit(5)).equijoin_columns() is None
        assert (col("E.a") < col("D.a")).equijoin_columns() is None

    def test_string_comparison(self):
        assert run(col("E.b") == lit("x"), (5, "x", 9))


class TestArithmetic:
    def test_operations(self):
        row = (6, "x", 3)
        assert run(col("E.a") + col("D.a"), row) == 9
        assert run(col("E.a") - col("D.a"), row) == 3
        assert run(col("E.a") * lit(2), row) == 12
        assert run(col("E.a") / col("D.a"), row) == pytest.approx(2.0)

    def test_composition(self):
        expr = (col("E.a") + lit(1)) * lit(10) >= lit(70)
        assert run(expr, (6, "x", 3))
        assert not run(expr, (5, "x", 3))


class TestBooleans:
    def test_and(self):
        expr = and_(col("E.a") > lit(1), col("D.a") > lit(1))
        assert run(expr, (2, "x", 2))
        assert not run(expr, (2, "x", 0))

    def test_or(self):
        expr = or_(col("E.a") > lit(10), col("D.a") > lit(1))
        assert run(expr, (2, "x", 2))
        assert not run(expr, (2, "x", 0))

    def test_not(self):
        expr = not_(col("E.a") == lit(5))
        assert not run(expr, (5, "x", 0))
        assert run(expr, (6, "x", 0))

    def test_single_operand_passthrough(self):
        base = col("E.a") == lit(5)
        assert and_(base) is base
        assert or_(base) is base

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            and_()
        with pytest.raises(SchemaError):
            or_()


class TestReferences:
    def test_references_collects_columns(self):
        expr = and_(col("E.a") == col("D.a"), col("E.b") == lit("x"))
        assert expr.references() == frozenset({"E.a", "D.a", "E.b"})

    def test_const_has_no_references(self):
        assert lit(5).references() == frozenset()

    def test_not_references(self):
        assert not_(col("E.a") == lit(1)).references() == frozenset({"E.a"})


class TestStructuralKey:
    """``key()``: equal keys <=> the same computation, where ``==`` builds
    a comparison node and ``hash`` is identity."""

    def build(self):
        return or_(
            and_(col("E.a") + lit(2) > col("D.a") * lit(3), col("E.b") == lit("x")),
            not_(col("E.a") / lit(4.0) - lit(1) <= lit(0)),
        )

    def test_separately_built_equal_trees_have_equal_keys(self):
        one, other = self.build(), self.build()
        assert one is not other
        assert one.key() == other.key()
        assert hash(one.key()) == hash(other.key())
        assert len({one.key(): 1, other.key(): 2}) == 1

    @pytest.mark.parametrize("different", [
        lambda: col("E.a") > lit(1),
        lambda: col("E.b") < lit(1),        # another column
        lambda: col("E.a") <= lit(1),       # another operator
        lambda: col("E.a") < lit(2),        # another constant
        lambda: lit(1) < col("E.a"),        # operands swapped
        lambda: col("E.a") + lit(1),        # another node type
        lambda: col("E.a") - lit(1),
        lambda: not_(col("E.a") < lit(1)),
        lambda: and_(col("E.a") < lit(1), col("E.b") < lit(1)),
        lambda: or_(col("E.a") < lit(1), col("E.b") < lit(1)),
        lambda: and_(col("E.b") < lit(1), col("E.a") < lit(1)),
    ])
    def test_any_structural_difference_changes_the_key(self, different):
        assert different().key() != (col("E.a") < lit(1)).key()

    def test_constants_key_by_type_and_value(self):
        # 1 == 1.0 == True in Python, and hash alike; they are not the
        # same constant to a query.
        keys = [lit(v).key() for v in (1, 1.0, True, "1", None, 0, False, 0.0)]
        assert len(set(keys)) == len(keys)
        assert lit(1).key() == lit(1).key()
        assert lit("x").key() == lit("x").key()
        assert lit((1, "a")).key() == lit((1, "a")).key()

    def test_unhashable_constant_equals_only_itself(self):
        one, other = lit([1, 2]), lit([1, 2])
        assert one.key() == one.key()
        assert one.key() != other.key()
        assert (col("E.a") == one).key() != (col("E.a") == other).key()
        hash(one.key())  # still usable as a dict key

    def test_subclass_without_key_equals_only_itself(self):
        class Opaque(Expression):
            def compile_block(self, layout):
                return lambda block: [True] * len(block)

            def references(self):
                return frozenset()

        one, other = Opaque(), Opaque()
        assert one.key() == one.key() and hash(one.key()) == hash(one.key())
        assert one.key() != other.key()
        assert and_(one, col("E.a") > lit(1)).key() != and_(
            other, col("E.a") > lit(1)
        ).key()

    def test_identity_key_keeps_its_object_alive(self):
        # An id may be reused once an object dies; a key that outlives
        # its expression must not start matching a new one.
        keys = {lit([i]).key() for i in range(200)}
        assert len(keys) == 200
