"""Hypothesis property tests for the relational engine.

Two families of invariants:

* **query correctness** -- random SPJ queries over random small relations
  must agree with a brute-force relational-algebra reference evaluator
  (nested loops over Python lists);
* **column pruning** -- random queries at block sizes 1 / 7 / 256 equal a
  plain-Python oracle row for row and charge the same whatever the block
  size and whatever columns the plan dropped on the way.

Snapshot isolation -- a snapshot at any LSN, retained or rolled forward,
indexed or not, through log truncation, equals the table's
state at that LSN, rows and keyed buckets alike -- is held to a
row-by-row model of the table by the stateful oracle
(``tests/ivm/test_oracle_machine.py``).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.database import Database
from repro.engine.errors import SchemaError
from repro.engine.expr import col, lit, not_, or_
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from tests.oracle import Model, oracle_rows

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

r_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-5, 5)),
    min_size=0,
    max_size=12,
)
s_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-5, 5)),
    min_size=0,
    max_size=8,
)


def build_db(r, s, index_s):
    db = Database()
    table_r = db.create_table(
        "r", Schema.of(k=ColumnType.INT, a=ColumnType.INT)
    )
    table_s = db.create_table(
        "s", Schema.of(k=ColumnType.INT, b=ColumnType.INT)
    )
    for row in r:
        table_r.insert(row)
    for row in s:
        table_s.insert(row)
    if index_s:
        table_s.create_index("k")
    return db


JOIN_SPEC = QuerySpec(
    base_alias="R",
    base_table="r",
    joins=(JoinSpec("S", "s", "R.k", "k"),),
)


def reference_join(r, s, threshold=None):
    out = []
    for rk, ra in r:
        for sk, sb in s:
            if rk == sk and (threshold is None or ra > threshold):
                out.append((rk, ra, sk, sb))
    return sorted(out)


# ----------------------------------------------------------------------
# Query correctness vs brute force
# ----------------------------------------------------------------------


@given(r=r_rows, s=s_rows, index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_join_matches_bruteforce(r, s, index_s):
    db = build_db(r, s, index_s)
    result = db.execute(JOIN_SPEC)
    assert sorted(result.rows) == reference_join(r, s)


@given(r=r_rows, s=s_rows, threshold=st.integers(-5, 5),
       index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_filtered_join_matches_bruteforce(r, s, threshold, index_s):
    db = build_db(r, s, index_s)
    spec = QuerySpec(
        base_alias="R",
        base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),),
        filters=(col("R.a") > lit(threshold),),
    )
    result = db.execute(spec)
    assert sorted(result.rows) == reference_join(r, s, threshold)


@given(r=r_rows, s=s_rows, index_s=st.booleans())
@settings(max_examples=60, deadline=None)
def test_aggregates_match_bruteforce(r, s, index_s):
    db = build_db(r, s, index_s)
    joined = reference_join(r, s)
    for func, reference in (
        ("count", len(joined) if joined else 0),
        ("min", min((row[1] for row in joined), default=None)),
        ("max", max((row[1] for row in joined), default=None)),
        ("sum", sum(row[1] for row in joined) if joined else None),
    ):
        spec = QuerySpec(
            base_alias="R",
            base_table="r",
            joins=(JoinSpec("S", "s", "R.k", "k"),),
            aggregate=AggregateSpec(func=func, value=col("R.a")),
        )
        assert db.execute(spec).scalar() == reference


@given(r=r_rows, s=s_rows)
@settings(max_examples=40, deadline=None)
def test_index_choice_never_changes_answers(r, s):
    without = build_db(r, s, index_s=False).execute(JOIN_SPEC)
    with_index = build_db(r, s, index_s=True).execute(JOIN_SPEC)
    assert sorted(without.rows) == sorted(with_index.rows)


@given(r=r_rows, s=s_rows, delta=s_rows)
@settings(max_examples=40, deadline=None)
def test_substitution_equals_replaced_table(r, s, delta):
    """Executing with a substitution must equal executing against a
    database whose table really contains the substituted rows."""
    db = build_db(r, s, index_s=False)
    substituted = db.execute(JOIN_SPEC, substitutions={"S": delta})
    direct = build_db(r, delta, index_s=False).execute(JOIN_SPEC)
    assert sorted(substituted.rows) == sorted(direct.rows)


# ----------------------------------------------------------------------
# Column pruning vs the plain-Python oracle
# ----------------------------------------------------------------------

#: R is the base; S fans out 0 / 1 / many per R row, T likewise per S row.
#: ``sk`` and ``tk`` are ambiguous as bare names once both owners joined;
#: ``R.name`` is only ever filtered on.
PRUNING_TABLES = {
    "R": ("r", ("id", "sk", "name")),
    "S": ("s", ("sk", "tk", "b")),
    "T": ("t", ("tk", "c")),
}
PRUNING_JOINS = (
    JoinSpec("S", "s", "R.sk", "sk"),
    JoinSpec("T", "t", "S.tk", "tk"),
)
PRUNING_BLOCK_SIZES = (1, 7, 256)


def build_pruning_db(tables, indexed, block_size):
    db = Database(block_size=block_size)
    for alias, (name, columns) in PRUNING_TABLES.items():
        types = {c: ColumnType.STR if c == "name" else ColumnType.INT
                 for c in columns}
        table = db.create_table(name, Schema.of(**types))
        for row in tables[alias]:
            table.insert(row)
    for alias, column in (("S", "sk"), ("T", "tk")):
        if alias in indexed:
            db.table(PRUNING_TABLES[alias][0]).create_index(column)
    return db


@st.composite
def pruning_cases(draw):
    """``(tables, indexed aliases, engine spec, oracle spec)``.

    The two specs describe one query; the oracle's names its group-by and
    projection columns in full, the engine's may use bare names wherever
    they are unambiguous.  Filters and aggregate values are shared: the
    oracle resolves bare names in expressions itself.
    """
    small = st.integers(-3, 3)
    tables = {
        "R": draw(st.lists(st.tuples(
            st.integers(0, 6), st.integers(0, 3), st.sampled_from("uvw")),
            max_size=10)),
        "S": draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, 2), small), max_size=10)),
        "T": draw(st.lists(st.tuples(st.integers(0, 2), small), max_size=6)),
    }
    aliases = ("R", "S", "T")[: draw(st.integers(1, 3))]
    indexed = draw(st.sets(st.sampled_from(("S", "T"))))
    columns = [
        f"{alias}.{name}"
        for alias in aliases for name in PRUNING_TABLES[alias][1]
    ]
    bare_names = [c.split(".")[1] for c in columns]
    numeric = [c for c in columns if c != "R.name"]

    def written(qualified):
        bare = qualified.split(".")[1]
        if bare_names.count(bare) == 1 and draw(st.booleans()):
            return bare
        return qualified

    def ref(qualified):
        return col(written(qualified))

    # Filters that become ready at different stages, in any order.
    pool = [
        ref("R.id") > lit(draw(small)),
        ref("R.name") == lit(draw(st.sampled_from("uvwx"))),
        not_(ref("R.name") == lit("u")),
    ]
    if "S" in aliases:
        pool += [
            ref("S.b") >= lit(draw(small)),
            ref("R.id") + ref("S.b") > lit(draw(small)),
        ]
    if "T" in aliases:
        pool += [
            ref("T.c") < lit(draw(small)),
            or_(ref("R.id") != ref("T.c"), ref("S.b") > lit(0)),
        ]
    filters = tuple(draw(st.permutations(pool)))[: draw(st.integers(0, 3))]

    shape = draw(st.sampled_from(("aggregate", "projection", "plain", "reads")))
    engine, oracle = {}, {}
    if shape == "aggregate":
        first, second = draw(st.sampled_from(numeric)), draw(st.sampled_from(numeric))
        value = draw(st.sampled_from((
            ref(first), lit(1), ref(first) * lit(2) + ref(second),
        )))
        group = draw(st.lists(st.sampled_from(columns), max_size=1))
        func = draw(st.sampled_from(("count", "sum", "min", "max")))
        engine["aggregate"] = AggregateSpec(
            func, value, tuple(written(g) for g in group))
        oracle["aggregate"] = AggregateSpec(func, value, tuple(group))
    elif shape == "projection":
        chosen = draw(st.lists(
            st.sampled_from(columns), min_size=1, max_size=4, unique=True))
        engine["projection"] = tuple(written(c) for c in chosen)
        oracle["projection"] = tuple(chosen)
    elif shape == "reads":
        chosen = draw(st.lists(st.sampled_from(columns), max_size=3, unique=True))
        engine["reads"] = tuple(written(c) for c in chosen)
        oracle["projection"] = tuple(chosen)
    common = dict(
        base_alias="R", base_table="r",
        joins=PRUNING_JOINS[: len(aliases) - 1], filters=filters,
    )
    return tables, indexed, QuerySpec(**common, **engine), QuerySpec(**common, **oracle)


@given(case=pruning_cases(), substitute=st.booleans())
@settings(max_examples=120, deadline=None)
def test_pruned_plans_equal_the_oracle_at_every_block_size(case, substitute):
    tables, indexed, spec, oracle_spec = case
    # A delta batch in place of the base table reads the same rows through
    # the row-major hand-through instead of a column-slicing scan.
    substitutions = {"R": tables["R"]} if substitute else None
    models = {}
    for alias, (name, columns) in PRUNING_TABLES.items():
        model = models[name] = Model(columns)
        for row in tables[alias]:
            model.insert(row)
    charges = []
    for block_size in PRUNING_BLOCK_SIZES:
        db = build_pruning_db(tables, indexed, block_size)
        result = db.execute(spec, substitutions=substitutions)
        expected = oracle_rows(models, oracle_spec)
        if spec.reads is None:
            assert result.rows == expected
        else:
            # At least the columns read, named in full, others optional.
            at = [result.columns.index(c) for c in oracle_spec.projection]
            assert [tuple(row[p] for p in at) for row in result.rows] == expected
        charges.append(db.counter.snapshot())
    assert charges[0] == charges[1] == charges[2]
    if spec.reads is not None:
        # Dropping a column is free: the unpruned join charges the same.
        db = build_pruning_db(tables, indexed, PRUNING_BLOCK_SIZES[-1])
        plain = QuerySpec(
            base_alias="R", base_table="r", joins=spec.joins, filters=spec.filters
        )
        db.execute(plain, substitutions=substitutions)
        assert db.counter.snapshot() == charges[-1]


@pytest.mark.parametrize("indexed", [(), ("S",)])
def test_ambiguous_bare_name_raises_although_pruning_drops_a_candidate(indexed):
    """``sk`` names both ``R.sk`` and ``S.sk``.  Nothing but the join reads
    ``S.sk``, so the pruned join output holds one ``sk`` only -- names are
    resolved against the full layout all the same."""
    tables = {"R": [(1, 1, "u")], "S": [(1, 0, 2)], "T": []}
    db = build_pruning_db(tables, set(indexed), 7)
    spec = QuerySpec(
        base_alias="R", base_table="r", joins=PRUNING_JOINS[:1],
        projection=("sk",),
    )
    with pytest.raises(SchemaError, match="ambiguous column 'sk'"):
        db.execute(spec)
    with pytest.raises(SchemaError, match="ambiguous column 'sk'"):
        db.execute(QuerySpec(
            base_alias="R", base_table="r", joins=PRUNING_JOINS[:1],
            aggregate=AggregateSpec("count", lit(1), group_by=("sk",)),
        ))
