"""Differential: shared-scan rounds vs views maintained one at a time.

The same views over identically seeded databases and update streams,
once under a coordinator's table-at-a-time shared scans, once as
standalone :class:`ViewMaintainer`s stepped one by one -- the reference,
kept in this module (:func:`run_fleet`), that shares nothing.  Across
the (block_size x policy) matrix:

* every view's contents are identical between the two (and match a
  from-scratch recompute);
* the fleet's total simulated maintenance cost is **strictly lower**
  under the coordinator once >= 2 views share a base table -- the scan
  de-dup plus fingerprint suppression is a real saving, not an
  accounting shuffle;
* with a single subscriber and no fingerprint in play the totals are
  **exactly equal** -- shared scanning moves the charge, never the amount.

Second differential, inside shared mode: the same fleet with delta
evaluation shared between structurally equal views, and with every
structural key replaced by an identity key (nothing is equal to anything
else, so every view runs its own queries through the same code).  Sharing
must change **nothing** a view or the counter can see -- contents, every
ledger entry's charges and ``sim_ms`` (bit-equal), the counter's tallies,
the fleet total -- only how many queries actually ran.  The identity mode
also unshares what a round shares besides evaluations: cost functions are
equal only to themselves (one ``CostModel`` per view) and the round keeps
no policy action, Definition-1 verdict, window batch or zero-work entry.

Third differential: a heterogeneous fleet driven through everything that
can take a view out of lock-step (late registration, ``set_policy``, a
targeted refresh, a direct ``step``), against standalone maintainers
driven the same way -- every ledger entry equal on its decision fields.

Last, the decision memo itself: a lock-step NAIVE fleet asks ``decide``
once per distinct ``(model, pre)`` per round while every view keeps its
own ``observe`` and ``record_action``; a subclass that overrides
``decide`` is asked per view and decides what it decides alone; and
while decisions are observed every view emits its own.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.obs import decisions
from repro.core.costfuncs import CostFunction, LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.engine import expr
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.types import ColumnType, Schema
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm import sharedscan
from repro.ivm.sharedscan import SharedScanRound
from repro.ivm.view import MaterializedView
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater
from tests.conftest import make_tpcr_db
from tests.ivm.test_sharedscan import (
    cost_by_nation_spec,
    cost_by_supplier_spec,
    costly_rows_spec,
)

STEPS = 5
MODS_PER_STEP = 8
COST = (LinearCost(slope=0.5, setup=2.0),)


def min_cost_spec() -> QuerySpec:
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
    )


def qty_spec() -> QuerySpec:
    """Never reads ``supplycost``: suppressible under the update stream."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        aggregate=AggregateSpec(
            func="sum", value=col("PS.availqty"), group_by=("PS.suppkey",)
        ),
    )


def whole_row_spec() -> QuerySpec:
    """Whole-row SPJ: ``referenced_columns`` is None, never fingerprinted."""
    return QuerySpec(base_alias="PS", base_table="partsupp")


def make_policy(kind: str):
    # Views sharing a table get identical policy configs, so their flush
    # windows coincide -- the regime where scan sharing pays.
    if kind == "naive":
        return NaivePolicy(), 1.0  # any non-empty state is full
    return OnlinePolicy(), 30.0


def run_fleet(
    specs: dict,
    policy_kind: str,
    shared: bool,
    block_size: int,
) -> tuple[dict, float]:
    """Maintain ``specs`` over a fresh seeded TPC-R db; returns
    (per-view contents, total simulated maintenance cost in ms)."""
    db = make_tpcr_db()
    db.block_size = block_size
    if shared:
        coordinator = MaintenanceCoordinator(db)
        step, refresh = coordinator.step, coordinator.refresh
    else:
        # The reference: no shared scan, fingerprint or shared evaluation.
        def step(t):
            for maintainer in maintainers.values():
                maintainer.step(t)

        def refresh(t):
            for maintainer in maintainers.values():
                maintainer.refresh(t)

    maintainers = {}
    for name, spec in specs.items():
        policy, limit = make_policy(policy_kind)
        if shared:
            coordinator.add_view(
                ViewConfig(
                    name=name,
                    query=spec,
                    policy=policy,
                    cost_functions=COST,
                    limit=limit,
                    scheduled_aliases=("PS",),
                )
            )
            maintainers[name] = coordinator.maintainer(name)
        else:
            maintainers[name] = ViewMaintainer(
                MaterializedView(name, db, spec), COST, limit, policy,
                scheduled_aliases=("PS",),
            )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    total = 0.0
    for t in range(STEPS):
        updater.apply(MODS_PER_STEP)
        with db.counter.window() as window:
            step(t)
        total += window.elapsed_ms
    with db.counter.window() as window:
        refresh(t=STEPS)
    total += window.elapsed_ms
    contents = {
        name: maintainer.view.contents()
        for name, maintainer in maintainers.items()
    }
    for name, maintainer in maintainers.items():
        assert maintainer.view.contents() == maintainer.view.recompute(), name
    return contents, total


MATRIX = [
    pytest.param(bs, p, id=f"bs{bs}-{p}")
    for bs in (16, 256)
    for p in ("naive", "online")
]


@pytest.mark.parametrize("block_size,policy", MATRIX)
def test_shared_fleet_identical_and_strictly_cheaper(block_size, policy):
    specs = {
        "min_a": min_cost_spec(),
        "min_b": min_cost_spec(),
        "qty": qty_spec(),
    }
    independent, cost_ind = run_fleet(
        specs, policy, shared=False, block_size=block_size
    )
    shared, cost_shared = run_fleet(
        specs, policy, shared=True, block_size=block_size
    )
    assert shared == independent
    assert cost_shared < cost_ind


@pytest.mark.parametrize("block_size", (16, 256))
def test_single_view_totals_exactly_equal(block_size):
    specs = {"rows": whole_row_spec()}
    independent, cost_ind = run_fleet(
        specs, "naive", shared=False, block_size=block_size
    )
    shared, cost_shared = run_fleet(
        specs, "naive", shared=True, block_size=block_size
    )
    assert shared == independent
    assert cost_shared == pytest.approx(cost_ind, abs=1e-9)


# ----------------------------------------------------------------------
# Shared delta evaluation vs every view evaluating its own
# ----------------------------------------------------------------------


class Forgets(dict):
    """A round's memo that keeps nothing: every asker is the first."""

    def __setitem__(self, key, value):
        pass


def forget(owner, *names: str) -> None:
    """Replace each named memo of ``owner`` with a :class:`Forgets`.

    Every name must exist, so a renamed memo fails here instead of
    quietly staying shared.  A memo that is None (the decision memo of a
    round whose decisions somebody observes) is off already.
    """
    for name in names:
        assert hasattr(owner, name), (
            f"{type(owner).__name__} has no memo {name!r}"
        )
        if getattr(owner, name) is not None:
            setattr(owner, name, Forgets())


@contextmanager
def identity_keys():
    """Every expression and spec keys by identity, as an ``Expression``
    subclass that defines no ``key`` does: no two views are structurally
    equal, nothing is shared, the code path is otherwise the same.

    ``Expression.key`` alone would not do: a filter-free delta spec holds
    no expression, so ``QuerySpec.key`` is replaced as well.  Likewise a
    cost function is equal only to itself, and every memo a round keeps
    by value it forgets: the policy actions (``actions``), the
    Definition-1 verdicts (``decided``), the zero-work entries
    (``zero_work``) and each table's window batches (``_batches``).  The
    fingerprint verdicts stay: a verdict is priced once per window and
    signature, so forgetting it would change the charges, not just the
    sharing.
    """
    nodes = (expr.ColumnRef, expr.Const, expr.Comparison, expr.BinOp,
             expr.BoolOp, expr.Not)
    new_round = SharedScanRound.__init__
    new_scan = sharedscan._TableScan.__init__

    def forgetful_round(self, database):
        new_round(self, database)
        forget(self, "actions", "decided", "zero_work")

    def forgetful_scan(self, *args):
        new_scan(self, *args)
        forget(self, "_batches")

    with ExitStack() as stack:
        for cls in nodes:
            stack.enter_context(
                mock.patch.object(cls, "key", expr.Expression.key)
            )
        stack.enter_context(
            mock.patch.object(QuerySpec, "key", expr.Expression.key)
        )
        stack.enter_context(
            mock.patch.object(CostFunction, "__eq__", object.__eq__)
        )
        stack.enter_context(
            mock.patch.object(CostFunction, "__hash__", object.__hash__)
        )
        stack.enter_context(
            mock.patch.object(SharedScanRound, "__init__", forgetful_round)
        )
        stack.enter_context(
            mock.patch.object(sharedscan._TableScan, "__init__", forgetful_scan)
        )
        yield


def entry_facts(entry) -> tuple:
    """Everything a ledger entry records except wall time."""
    return (
        entry.t, entry.arrivals, entry.pre_state, entry.action, entry.forced,
        entry.predicted_ms, entry.sim_ms, entry.backlog, entry.charges,
    )


def observed(coordinator, recorder) -> dict:
    """What the two modes must agree on, and what they must not."""

    def count(name):
        metric = recorder.registry.get(name)
        return metric.value if metric is not None else 0

    for name, maintainer in coordinator.iter_maintainers():
        # approx: an incrementally kept float SUM and a recomputed one add
        # in different orders.  Between the two modes equality is exact.
        assert maintainer.view.contents() == pytest.approx(
            maintainer.view.recompute(), rel=1e-9
        ), name
    return {
        "contents": {
            name: m.view.contents() for name, m in coordinator.iter_maintainers()
        },
        "entries": {
            name: [entry_facts(e) for e in m.ledger.entries]
            for name, m in coordinator.iter_maintainers()
        },
        "tallies": coordinator.database.counter.snapshot(),
        "total_cost_ms": coordinator.total_cost_ms(),
        "evaluated": count("ivm.coordinator.delta.evaluated"),
        "reused": count("ivm.coordinator.delta.reused"),
    }


def assert_sharing_invisible(structural: dict, identity: dict) -> None:
    for what in ("contents", "entries", "tallies", "total_cost_ms"):
        assert structural[what] == identity[what], what
    assert identity["reused"] == 0
    assert (
        structural["evaluated"] + structural["reused"] == identity["evaluated"]
    )


TWO_COSTS = (LinearCost(slope=0.5, setup=2.0), LinearCost(slope=1.0, setup=3.0))

#: name -> (spec factory, policy kind, limit, scheduled aliases).  Spec-equal
#: views under different names; the same spec under NAIVE (flushes every
#: round) and ONLINE with different limits (defers), so their windows on
#: the same table diverge and coincide by turns.
FLEET = {
    "min_a": (min_cost_spec, "naive", 1.0, ("PS",)),
    "min_b": (min_cost_spec, "naive", 1.0, ("PS",)),
    "min_online": (min_cost_spec, "online", 9.0, ("PS",)),
    "min_online_lax": (min_cost_spec, "online", 14.0, ("PS",)),
    "sum_by_supp": (lambda: cost_by_supplier_spec("sum"), "naive", 1.0, ("PS",)),
    "min_by_supp": (lambda: cost_by_supplier_spec("min"), "naive", 1.0, ("PS",)),
    "costly_a": (lambda: costly_rows_spec(500), "naive", 1.0, ("PS",)),
    "costly_b": (lambda: costly_rows_spec(500), "online", 9.0, ("PS",)),
    "costly_float": (lambda: costly_rows_spec(500.0), "naive", 1.0, ("PS",)),
    "nation_a": (cost_by_nation_spec, "naive", 1.0, ("PS", "S")),
    "nation_b": (cost_by_nation_spec, "naive", 1.0, ("PS", "S")),
    "nation_online": (cost_by_nation_spec, "online", 16.0, ("PS", "S")),
    "nation_online_lax": (cost_by_nation_spec, "online", 24.0, ("PS", "S")),
}


def run_seeded_fleet():
    """Register FLEET, stream updates to both tables, refresh at the end.

    Returns (coordinator, what it observed, the counts after registration).
    """
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    with obs.recording() as recorder:
        for name, (spec, kind, limit, aliases) in FLEET.items():
            coordinator.add_view(
                ViewConfig(
                    name=name,
                    query=spec(),
                    policy=NaivePolicy() if kind == "naive" else OnlinePolicy(),
                    cost_functions=TWO_COSTS[: len(aliases)],
                    limit=limit,
                    scheduled_aliases=aliases,
                )
            )
        registered = observed(coordinator, recorder)
        partsupp = PartSuppCostUpdater(db.table("partsupp"), seed=101)
        supplier = SupplierNationUpdater(db.table("supplier"), seed=102)
        for t in range(8):
            partsupp.apply(6)
            supplier.apply(2)
            coordinator.step(t)
        coordinator.refresh(t=8)
        return coordinator, observed(coordinator, recorder), registered


def predicted_evaluations(coordinator) -> tuple[int, int]:
    """(distinct, total) delta queries of a finished run, from its ledgers.

    A query is determined by the round, the table window, the delta spec's
    structural key and the LSNs the view's other aliases had been applied
    to when it ran; every window here holds updates only, so each one is
    queried twice (deleted rows, inserted rows).
    """
    distinct, total = set(), 0
    for _, maintainer in coordinator.iter_maintainers():
        view = maintainer.view
        applied = {
            alias: delta.applied_lsn
            - sum(
                e.action[maintainer.aliases.index(alias)]
                for e in maintainer.ledger.entries
            )
            for alias, delta in view.deltas.items()
        }
        for entry in maintainer.ledger.entries:
            for alias, k in zip(maintainer.aliases, entry.action):
                if not k:
                    continue
                others = tuple(
                    (o, lsn) for o, lsn in applied.items() if o != alias
                )
                distinct.add((
                    entry.t, view.deltas[alias].table.name, applied[alias], k,
                    view.delta_keys[alias], others,
                ))
                total += 1
                applied[alias] += k
    return 2 * len(distinct), 2 * total


def test_shared_evaluation_changes_nothing_but_the_query_count():
    coordinator, structural, registered = run_seeded_fleet()
    with identity_keys():
        _, identity, registered_alone = run_seeded_fleet()
    assert_sharing_invisible(registered, registered_alone)
    assert_sharing_invisible(structural, identity)

    # Registration: one query per distinct spec -- 500 and 500.0 differ;
    # SUM and MIN of one column by one key materialize from the same join.
    assert registered_alone["evaluated"] == len(FLEET)
    assert registered["evaluated"] == 5
    # Rounds: exactly the queries the ledgers say were distinct.
    distinct, total = predicted_evaluations(coordinator)
    assert identity["evaluated"] - registered_alone["evaluated"] == total
    assert structural["evaluated"] - registered["evaluated"] == distinct
    assert distinct < total

    def actions(name):
        return [e.action for e in coordinator.maintainer(name).ledger.entries]

    # Spec-equal views under different policies did flush different windows.
    assert actions("min_online") != actions("min_a")
    assert actions("nation_online") != actions("nation_online_lax")


# A small vocabulary over two tiny tables, for the generated fleets.

def _r_agg(func, value, *group):
    return QuerySpec(
        base_alias="R", base_table="r",
        aggregate=AggregateSpec(func=func, value=value, group_by=tuple(group)),
    )


def _joined(**kwargs):
    return QuerySpec(
        base_alias="R", base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),), **kwargs,
    )


VOCABULARY = (
    (lambda: _r_agg("sum", col("R.a"), "R.k"), ("R",)),
    (lambda: _r_agg("min", col("R.a"), "R.k"), ("R",)),
    (lambda: _r_agg("count", col("R.a")), ("R",)),
    (lambda: _r_agg("max", col("R.a") + lit(1), "R.k"), ("R",)),
    (lambda: QuerySpec(
        base_alias="R", base_table="r",
        filters=(col("R.a") > lit(0),), projection=("R.k", "R.a"),
    ), ("R",)),
    (lambda: QuerySpec(
        base_alias="R", base_table="r",
        filters=(col("R.a") > lit(0.0),), projection=("R.k", "R.a"),
    ), ("R",)),
    (lambda: _joined(), ("R", "S")),
    (lambda: _joined(projection=("S.b", "R.a")), ("R", "S")),
    (lambda: _joined(
        aggregate=AggregateSpec(func="min", value=col("R.a"))
    ), ("R", "S")),
    (lambda: _joined(
        aggregate=AggregateSpec(
            func="sum", value=col("S.b"), group_by=("R.k",)
        )
    ), ("R", "S")),
)

rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-4, 4)), min_size=1, max_size=6
)
members = st.lists(
    st.tuples(
        st.integers(0, len(VOCABULARY) - 1),
        st.sampled_from([("naive", 1.0), ("online", 8.0), ("online", 12.0)]),
    ),
    min_size=2,
    max_size=7,
)
modification = st.tuples(
    st.sampled_from(["r", "s"]),
    st.sampled_from(["insert", "delete", "update"]),
    st.integers(0, 3),
    st.integers(-4, 4),
)
stream = st.lists(st.lists(modification, max_size=4), min_size=1, max_size=6)


def modify(table, kind, key, value) -> None:
    if kind == "insert":
        table.insert((key, value))
        return
    victims = table.find_rids(lambda row: row[0] == key)
    if not victims:
        return
    if kind == "delete":
        table.delete_rids([victims[0]])
    else:
        table.update_rid(victims[0], {table.schema.names[1]: value})


def run_generated_fleet(r_rows, s_rows, fleet, steps) -> dict:
    db = Database()
    r = db.create_table("r", Schema.of(k=ColumnType.INT, a=ColumnType.INT))
    s = db.create_table("s", Schema.of(k=ColumnType.INT, b=ColumnType.INT))
    for row in r_rows:
        r.insert(row)
    for row in s_rows:
        s.insert(row)
    s.create_index("k")
    coordinator = MaintenanceCoordinator(db)
    with obs.recording() as recorder:
        for i, (which, (kind, limit)) in enumerate(fleet):
            spec, aliases = VOCABULARY[which]
            coordinator.add_view(
                ViewConfig(
                    name=f"v{i}",
                    query=spec(),
                    policy=NaivePolicy() if kind == "naive" else OnlinePolicy(),
                    cost_functions=TWO_COSTS[: len(aliases)],
                    limit=limit,
                    scheduled_aliases=aliases,
                )
            )
        for t, modifications in enumerate(steps):
            for table, kind, key, value in modifications:
                modify(db.table(table), kind, key, value)
            coordinator.step(t)
        coordinator.refresh(t=len(steps))
        return observed(coordinator, recorder)


@settings(max_examples=30, deadline=None)
@given(r_rows=rows, s_rows=rows, fleet=members, steps=stream)
def test_generated_fleets_share_invisibly(r_rows, s_rows, fleet, steps):
    structural = run_generated_fleet(r_rows, s_rows, fleet, steps)
    with identity_keys():
        identity = run_generated_fleet(r_rows, s_rows, fleet, steps)
    assert_sharing_invisible(structural, identity)


# ----------------------------------------------------------------------
# A heterogeneous fleet vs standalone maintainers, entry by entry
# ----------------------------------------------------------------------


def half_two():
    """``f(k) = 0.5 k + 2``, a new object every time: equal by value only."""
    return LinearCost(slope=0.5, setup=2.0)


def two_costs():
    return (half_two(), LinearCost(slope=1.0, setup=3.0))


def qty_by_nation_spec() -> QuerySpec:
    """Two tables, and never reads ``supplycost``: its PS windows are
    suppressed while its S windows fold, in one flush."""
    return QuerySpec(
        base_alias="PS",
        base_table="partsupp",
        joins=(JoinSpec("S", "supplier", "PS.suppkey", "suppkey"),),
        aggregate=AggregateSpec(
            func="sum", value=col("PS.availqty"), group_by=("S.nationkey",)
        ),
    )


#: name -> (spec factory, policy kind, cost functions, limit, aliases).
#: NAIVE and ONLINE, two limits per kind, equal-by-value cost functions
#: beside one that differs, suppressible specs (``qty_spec``) beside ones
#: that fold, and two-table views, one of them half suppressed.  ``LATE``
#: registers after round 2.
MIXED = {
    "naive_a": (min_cost_spec, "naive", lambda: (half_two(),), 1.0, ("PS",)),
    "naive_b": (min_cost_spec, "naive", lambda: (half_two(),), 1.0, ("PS",)),
    "naive_qty": (qty_spec, "naive", lambda: (half_two(),), 1.0, ("PS",)),
    "naive_lax": (min_cost_spec, "naive", lambda: (half_two(),), 7.0, ("PS",)),
    "online_a": (min_cost_spec, "online", lambda: (half_two(),), 9.0, ("PS",)),
    "online_qty": (qty_spec, "online", lambda: (half_two(),), 9.0, ("PS",)),
    "online_lax": (min_cost_spec, "online", lambda: (half_two(),), 14.0, ("PS",)),
    "online_steep": (
        min_cost_spec, "online",
        lambda: (LinearCost(slope=0.75, setup=2.0),), 9.0, ("PS",),
    ),
    "nation_a": (cost_by_nation_spec, "online", two_costs, 16.0, ("PS", "S")),
    "nation_b": (cost_by_nation_spec, "naive", two_costs, 16.0, ("PS", "S")),
    "nation_qty": (qty_by_nation_spec, "naive", two_costs, 16.0, ("PS", "S")),
}
LATE = {
    "late_naive": (min_cost_spec, "naive", lambda: (half_two(),), 1.0, ("PS",)),
    "late_online": (qty_spec, "online", lambda: (half_two(),), 9.0, ("PS",)),
}


class Standalone:
    """The reference fleet: ``ViewMaintainer``s stepped one by one,
    sharing no scan, no model, no round."""

    def __init__(self, db):
        self.db = db
        self.maintainers = {}

    def add(self, name, spec, policy, costs, limit, aliases):
        self.maintainers[name] = ViewMaintainer(
            MaterializedView(name, self.db, spec), costs, limit, policy,
            scheduled_aliases=aliases,
        )

    def step(self, t):
        for maintainer in self.maintainers.values():
            maintainer.step(t)

    def refresh(self, names, t):
        for name in names or self.maintainers:
            self.maintainers[name].refresh(t)


class Coordinated:
    def __init__(self, db):
        self.coordinator = MaintenanceCoordinator(db)
        self.maintainers = {}

    def add(self, name, spec, policy, costs, limit, aliases):
        self.coordinator.add_view(
            ViewConfig(
                name=name, query=spec, policy=policy, cost_functions=costs,
                limit=limit, scheduled_aliases=aliases,
            )
        )
        self.maintainers[name] = self.coordinator.maintainer(name)

    def step(self, t):
        self.coordinator.step(t)

    def refresh(self, names, t):
        self.coordinator.refresh(names, t=t)


def run_mixed(make_fleet) -> dict:
    """Drive MIXED through everything that takes a view out of lock-step;
    returns name -> maintainer."""
    db = make_tpcr_db()
    fleet = make_fleet(db)
    partsupp = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    supplier = SupplierNationUpdater(db.table("supplier"), seed=102)

    def register(members):
        for name, (spec, kind, costs, limit, aliases) in members.items():
            policy = NaivePolicy() if kind == "naive" else OnlinePolicy()
            fleet.add(name, spec(), policy, costs(), limit, aliases)

    def modify():
        partsupp.apply(5)
        supplier.apply(2)

    register(MIXED)
    for t in range(3):
        modify()
        fleet.step(t)
    register(LATE)
    fleet.step(3)  # nothing arrived: idle for all but the lagging
    modify()
    fleet.step(4)
    fleet.maintainers["online_a"].set_policy(NaivePolicy())
    fleet.maintainers["naive_b"].set_policy(OnlinePolicy())
    modify()
    fleet.step(5)
    modify()
    fleet.refresh(["online_lax", "nation_a"], 6)
    fleet.step(6)
    modify()
    fleet.maintainers["online_qty"].step(7)  # directly, between rounds
    fleet.maintainers["naive_a"].step(7)
    modify()
    fleet.step(8)
    fleet.refresh(None, 9)
    return fleet.maintainers


def decision(entry) -> tuple:
    """What the policy and Definition 1 decided, not what it cost:
    ``sim_ms`` / ``charges`` differ from a standalone view's by design
    (the scan's ``tuple_cpu`` is the coordinator's, a suppressed flush
    charges nothing)."""
    return (
        entry.t, entry.arrivals, entry.pre_state, entry.action, entry.forced,
        entry.predicted_ms, entry.backlog,
    )


def test_heterogeneous_fleet_decides_what_standalone_views_decide():
    alone = run_mixed(Standalone)
    fleet = run_mixed(Coordinated)
    assert list(fleet) == list(alone) == [*MIXED, *LATE]
    for name, maintainer in fleet.items():
        reference = alone[name]
        assert [decision(e) for e in maintainer.ledger.entries] == [
            decision(e) for e in reference.ledger.entries
        ], name
        if isinstance(maintainer.policy, OnlinePolicy):
            assert maintainer.policy.spent == reference.policy.spent, name
        assert maintainer.view.contents() == pytest.approx(
            maintainer.view.recompute(), rel=1e-9
        ), name
        assert maintainer.view.contents() == reference.view.contents(), name
    # The run did leave lock-step, and did share.
    rounds = {name: len(m.ledger.entries) for name, m in fleet.items()}
    assert rounds["naive_a"] == rounds["naive_lax"] + 1 == 10
    assert rounds["online_lax"] == 10 and rounds["late_naive"] == 6
    assert (
        [e.action for e in fleet["naive_a"].ledger.entries]
        != [e.action for e in fleet["naive_b"].ledger.entries]
    )
    assert fleet["naive_a"].model is fleet["late_naive"].model
    assert fleet["online_a"].model is fleet["online_qty"].model
    assert fleet["naive_a"].model is not fleet["naive_lax"].model
    assert fleet["naive_a"].model is not fleet["online_steep"].model
    assert alone["naive_a"].model is not alone["naive_b"].model
    shared = {
        id(e) for e in fleet["naive_qty"].ledger.entries
    } & {id(e) for e in fleet["late_naive"].ledger.entries}
    assert shared


def test_heterogeneous_fleet_shares_invisibly():
    structural = run_mixed(Coordinated)
    with identity_keys():
        identity = run_mixed(Coordinated)
    for name, maintainer in structural.items():
        assert [entry_facts(e) for e in maintainer.ledger.entries] == [
            entry_facts(e) for e in identity[name].ledger.entries
        ], name
        assert maintainer.view.contents() == identity[name].view.contents()
    # Nothing was shared the second time: a model and an entry per view.
    models = [m.model for m in identity.values()]
    assert len({id(model) for model in models}) == len(models)
    entries = [e for m in identity.values() for e in m.ledger.entries]
    assert len({id(e) for e in entries}) == len(entries)


# ----------------------------------------------------------------------
# One policy decision per lock-step case
# ----------------------------------------------------------------------

LOCKSTEP_ROUNDS = 6


def lockstep_config(i: int) -> ViewConfig:
    """View ``i`` of the lock-step fleet: two specs, and two models --
    limit 1.0 (every backlog is full) or 6.0 (a backlog of 8 is not,
    one of 16 is) -- over cost functions equal by value only."""
    return ViewConfig(
        name=f"v{i:02d}",
        query=(min_cost_spec, qty_spec)[i % 2](),
        policy=NaivePolicy(),
        cost_functions=(half_two(),),
        limit=(1.0, 6.0)[i // 2 % 2],
        scheduled_aliases=("PS",),
    )


def run_lockstep(extra: dict | None = None) -> MaintenanceCoordinator:
    """Forty views, twenty more registered in round 1 (half a lax cycle
    behind), ``extra`` name -> policy registered with the first forty
    under the lax model; ``LOCKSTEP_ROUNDS`` rounds, then a refresh."""
    db = make_tpcr_db()
    coordinator = MaintenanceCoordinator(db)
    for i in range(40):
        coordinator.add_view(lockstep_config(i))
    for name, policy in (extra or {}).items():
        coordinator.add_view(
            ViewConfig(name, min_cost_spec(), policy, (half_two(),), 6.0,
                       ("PS",))
        )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    for t in range(LOCKSTEP_ROUNDS):
        if t == 1:
            for i in range(40, 60):
                coordinator.add_view(lockstep_config(i))
        updater.apply(MODS_PER_STEP)
        coordinator.step(t)
    coordinator.refresh(t=LOCKSTEP_ROUNDS)
    return coordinator


def test_lockstep_fleet_decides_once_per_case():
    real = {name: getattr(NaivePolicy, name)
            for name in ("decide", "observe", "record_action")}
    with ExitStack() as stack:
        mocks = {
            name: stack.enter_context(mock.patch.object(
                NaivePolicy, name, autospec=True, side_effect=method
            ))
            for name, method in real.items()
        }
        coordinator = run_lockstep()
    owner = {id(m.policy): m for _, m in coordinator.iter_maintainers()}

    def calls(name, t):
        return [c.args for c in mocks[name].call_args_list if c.args[1] == t]

    saved = 0
    for t in range(LOCKSTEP_ROUNDS + 1):
        entries = [
            (m, entry)
            for _, m in coordinator.iter_maintainers()
            for entry in m.ledger.entries
            if entry.t == t
        ]
        # Every view still gets its own observe and record_action.
        for name in ("observe", "record_action"):
            assert sorted(id(c[0]) for c in calls(name, t)) == sorted(
                id(m.policy) for m, _ in entries
            ), (name, t)
        cases = {
            (id(m.model), entry.pre_state)
            for m, entry in entries
            if not entry.forced
        }
        asked = [(id(owner[id(c[0])].model), c[2]) for c in calls("decide", t)]
        assert len(asked) == len(cases) and set(asked) == cases, t
        saved += sum(not e.forced for _, e in entries) - len(cases)
    # Two models, and the late views out of phase with the early ones.
    assert len({id(m.model) for _, m in coordinator.iter_maintainers()}) == 2
    assert max(
        len({(id(m.model), e.pre_state) for _, m in coordinator.iter_maintainers()
             for e in m.ledger.entries if e.t == t})
        for t in range(LOCKSTEP_ROUNDS)
    ) == 3
    assert saved > 50 * LOCKSTEP_ROUNDS


class EveryThird(NaivePolicy):
    """NAIVE that also flushes a backlog that is not full on every third
    time it is asked: ``decide`` is overridden and keeps state, and the
    class declares nothing."""

    def reset(self, cost_functions, limit):
        super().reset(cost_functions, limit)
        self.asked = 0

    def decide(self, t, pre_state):
        self.asked += 1
        if self.asked % 3 == 0:
            return tuple(pre_state)
        return super().decide(t, pre_state)


def test_overriding_subclass_is_asked_per_view():
    coordinator = run_lockstep({"third_a": EveryThird(), "third_b": EveryThird()})
    db = make_tpcr_db()
    alone = ViewMaintainer(
        MaterializedView("third", db, min_cost_spec()), (half_two(),), 6.0,
        EveryThird(), scheduled_aliases=("PS",),
    )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    for t in range(LOCKSTEP_ROUNDS):
        updater.apply(MODS_PER_STEP)
        alone.step(t)
    alone.refresh(LOCKSTEP_ROUNDS)
    reference = [decision(e) for e in alone.ledger.entries]
    # The lax NAIVE views of the same model and backlog decided otherwise.
    assert reference != [
        decision(e) for e in coordinator.maintainer("v02").ledger.entries
    ]
    for name in ("third_a", "third_b"):
        maintainer = coordinator.maintainer(name)
        assert maintainer.policy.asked == LOCKSTEP_ROUNDS, name
        assert [decision(e) for e in maintainer.ledger.entries] == reference
        assert maintainer.view.contents() == alone.view.contents()


def test_observed_decisions_are_each_views_own():
    with decisions.collecting() as ring:
        coordinator = run_lockstep()
    for t in range(LOCKSTEP_ROUNDS):
        deciding = [
            name for name, m in coordinator.iter_maintainers()
            if any(e.t == t for e in m.ledger.entries)
        ]
        assert len(deciding) == (40 if t == 0 else 60)
        assert sorted(e.view for e in ring.events(t=t)) == sorted(deciding), t
    assert not ring.events(t=LOCKSTEP_ROUNDS)  # the refresh asks nobody
