"""Shared fixtures for the test suite.

Heavy fixtures (TPC-R databases, calibrated cost curves) are session-scoped
and built at a tiny scale factor so the whole suite stays fast; tests that
mutate a database request the function-scoped variants.
"""

from __future__ import annotations

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.problem import ProblemInstance
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater

#: Tiny scale for tests: partsupp 1600 rows, supplier 20 rows.
TEST_SCALE = 0.002


def make_paper_spec() -> QuerySpec:
    """The paper's 4-way MIN view query."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        joins=(
            JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),
            JoinSpec("N", "nation", "S.nationkey", "nationkey"),
            JoinSpec("R", "region", "N.regionkey", "regionkey"),
        ),
        filters=(col("R.name") == lit("MIDDLE EAST"),),
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )


def make_tpcr_db(scale: float = TEST_SCALE, seed: int = 42) -> Database:
    """A freshly loaded TPC-R database with the paper's physical design."""
    db = Database()
    load_tpcr(db, scale=scale, seed=seed)
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")
    return db


def flush_all(view: MaterializedView) -> None:
    """Process every pending modification of ``view``, one alias after
    another, each as one :func:`apply_batch` (a round of one).

    Each batch reads the other tables at their *current* ``applied_lsn``,
    which advances as earlier batches complete, so the sequential
    composition is consistent.
    """
    for alias in view.spec.aliases:
        pending = view.deltas[alias].size
        if pending:
            apply_batch(view, alias, pending)


@pytest.fixture
def event_log():
    """A fresh installed event log (``repro.obs.events``), the previous
    one put back afterwards.  ``monkeypatch.setitem(events.CAPACITY,
    kind, n)`` before ``event_log.open(kind)`` sizes a ring."""
    from repro.obs import events

    log = events.EventLog()
    previous = events.install(log)
    try:
        yield log
    finally:
        assert events.install(previous) is log


@pytest.fixture
def tpcr_db() -> Database:
    """Function-scoped TPC-R database (mutate freely)."""
    return make_tpcr_db()


@pytest.fixture
def paper_view(tpcr_db) -> MaterializedView:
    """The paper's MIN view over a fresh TPC-R database."""
    return MaterializedView("paper_view", tpcr_db, make_paper_spec())


@pytest.fixture
def updaters(paper_view):
    """(PartSupp, Supplier) update streams bound to the view's database."""
    db = paper_view.database
    return (
        PartSuppCostUpdater(db.table("partsupp"), seed=11),
        SupplierNationUpdater(db.table("supplier"), seed=12),
    )


@pytest.fixture
def toy_db() -> Database:
    """A tiny two-table database for engine unit tests."""
    db = Database()
    emp = db.create_table(
        "emp",
        Schema.of(
            empno=ColumnType.INT,
            name=ColumnType.STR,
            deptno=ColumnType.INT,
            salary=ColumnType.FLOAT,
        ),
    )
    dept = db.create_table(
        "dept",
        Schema.of(deptno=ColumnType.INT, dname=ColumnType.STR),
    )
    for row in [
        (1, "alice", 10, 100.0),
        (2, "bob", 10, 200.0),
        (3, "carol", 20, 300.0),
        (4, "dave", 20, 150.0),
        (5, "erin", 30, 250.0),
    ]:
        emp.insert(row)
    for row in [(10, "eng"), (20, "sales"), (30, "ops")]:
        dept.insert(row)
    return db


@pytest.fixture
def linear_problem() -> ProblemInstance:
    """A small two-table instance with asymmetric linear costs."""
    cheap = LinearCost(slope=0.25)
    batchy = LinearCost(slope=0.1, setup=5.0)
    return ProblemInstance(
        [batchy, cheap], limit=12.0, arrivals=[(1, 1)] * 60
    )
