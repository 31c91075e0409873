"""The stateful oracle: writes, rounds and faults in any interleaving,
held to plain-Python models of the tables (:mod:`tests.oracle`).

Rules: write batches before a round (row ids may repeat, name a version
the batch made, or name no live row: table and model must fail at the
same row, each keeping the prefix); ``step(t, refresh=names)`` under
NAIVE, ONLINE and a scripted policy that may flush part of a backlog;
``set_policy``; ``add_view`` / ``remove_view``; ``ModLog.truncate``;
a read at any LSN through the retained snapshot or one rolled forward
from it; a view predicate that raises mid-flush; an
event subscriber that raises mid-emit (either is that view's: the rest
of the round executes).

After every rule: each view equals the oracle's evaluation of its query
at the view's applied LSNs; every unforced ledger entry leaves
``f(post) <= C``, summed from the cost functions, not through
``CostModel``; each table is where its model is, and each log truncated
exactly as far as its readers allow.  Reads and writes are checked
against the model as they happen: rows, keyed maps, log columns, charges.
One test per view family, its settings fixed here.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.engine.table import ModLog
from repro.engine.types import ColumnType, Schema
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import events
from tests.oracle import BadRid, Model, oracle_contents

SCHEMAS = {
    "r": Schema.of(k=ColumnType.INT, a=ColumnType.INT, x=ColumnType.FLOAT),
    "s": Schema.of(k=ColumnType.INT, b=ColumnType.INT),
}
FLOATS = {"r": ("x",), "s": ()}
#: Four-modification chunks, so batches straddle chunk boundaries and
#: truncation reclaims whole windows.
CHUNK = 4
MAX_VIEWS = 4


def _spec(**parts) -> QuerySpec:
    return QuerySpec(
        base_alias="R", base_table="r",
        joins=(JoinSpec("S", "s", "R.k", "k"),), **parts,
    )


#: The view families, one test each.  Within a family the views differ in
#: what they read, so fingerprint suppression (an update of a column a
#: view does not read), shared evaluations and the decision memo all
#: find something to do.
FAMILIES = {
    "spj": (
        _spec(),
        _spec(projection=("R.k", "R.a", "S.b")),
        _spec(filters=(col("R.a") > lit(0),), projection=("R.a", "S.b")),
    ),
    "extremum": (
        _spec(aggregate=AggregateSpec("min", col("R.a"))),
        _spec(aggregate=AggregateSpec("max", col("R.x"), ("S.b",))),
        _spec(filters=(col("S.b") != lit(1),),
              aggregate=AggregateSpec("min", col("S.b"), ("R.k",))),
    ),
    "additive": (
        _spec(aggregate=AggregateSpec("sum", col("R.a"), ("S.b",))),
        _spec(aggregate=AggregateSpec("count", col("R.k"))),
        _spec(aggregate=AggregateSpec("avg", col("S.b"), ("R.a",))),
    ),
}

#: (cost functions, C) a view may be registered with: a few pending
#: modifications fill either, so policies act often.
COSTS = (
    ((LinearCost(1.0, 2.0), LinearCost(3.0, 1.0)), 8.0),
    ((LinearCost(0.5), LinearCost(0.5, 2.0)), 4.0),
)
POLICIES = ("naive", "online", "scripted")


class Blown(Exception):
    """What a fault rule's fault raises."""


class Fuse:
    """A constant every ``!=`` with which holds, until it is lit: then
    the ``n``-th comparison raises, once."""

    def __init__(self):
        self.left: int | None = None

    def __ne__(self, other):
        if self.left is not None:
            self.left -= 1
            if self.left <= 0:
                self.left = None
                raise Blown("a view predicate raised mid-flush")
        return True


class Scripted(Policy):
    """Flushes ``share[i] / 4`` of table ``i``'s backlog, rounded up -- a
    partial ``k`` -- or everything when that would leave the view full."""

    def __init__(self, share: list[int]):
        super().__init__()
        self.share = share

    def decide(self, t, pre_state):
        action = tuple(-(-p * s // 4) for p, s in zip(pre_state, self.share))
        post = tuple(p - a for p, a in zip(pre_state, action))
        return tuple(pre_state) if self.is_full(post) else action


# ----------------------------------------------------------------------
# Generated batches
# ----------------------------------------------------------------------

ints = st.integers(-3, 6)
keys = st.integers(0, 3)
ROWS = {
    "r": st.tuples(keys, ints, st.one_of(ints, st.floats(-4.0, 4.0, allow_nan=False))),
    "s": st.tuples(keys, st.integers(0, 3)),
}
# How a batch names its next row id: mostly a row that is live at its
# turn (so a slot picked twice names the version the first pick created,
# and a later pick may name a version the batch itself made), sometimes a
# row id an earlier entry already consumed, sometimes one out of range.
picks = st.tuples(
    st.sampled_from(["live"] * 12 + ["again", "wild"]), st.integers(0, 10**6)
)


@st.composite
def batches(draw):
    table = draw(st.sampled_from(("r", "s")))
    op = draw(st.sampled_from(["insert", "insert", "update", "update", "delete"]))
    size = draw(st.integers(1, 6))
    if op == "insert":
        rows = draw(st.lists(ROWS[table], min_size=size, max_size=size))
        return table, op, rows, None
    rid_picks = draw(st.lists(picks, min_size=size, max_size=size))
    if op == "delete":
        return table, op, rid_picks, None
    names = SCHEMAS[table].names
    columns = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                            unique=True))
    changes = {
        column: draw(st.lists(
            keys if column == "k" else ints, min_size=size, max_size=size))
        for column in columns
    }
    return table, op, rid_picks, changes


def resolve(model: Model, op: str, rid_picks) -> list[int]:
    """Turn a batch's picks into row ids, tracking the rows live at each
    turn the way the update streams do."""
    live = model.live_rids()
    fresh = len(model.versions)
    rids: list[int] = []
    for mode, n in rid_picks:
        if mode == "again" and rids:
            rids.append(rids[n % len(rids)])
        elif mode == "live" and live:
            slot = n % len(live)
            rids.append(live[slot])
            if op == "update":
                live[slot] = fresh
                fresh += 1
            else:
                del live[slot]
        else:
            rids.append(n % 7 - 3 + (fresh if n % 2 else 0))
    return rids


views = st.tuples(
    st.integers(0, 2), st.sampled_from(POLICIES),
    st.integers(0, len(COSTS) - 1), st.booleans(),
)
shares = st.lists(st.integers(0, 4), min_size=2, max_size=2)
#: The writes that arrive before a round.
arrivals = st.lists(batches(), max_size=3)


class OracleMachine(RuleBasedStateMachine):
    FAMILY: tuple[QuerySpec, ...] = ()

    @initialize(
        indexed=st.sets(st.sampled_from(
            [("r", "k"), ("r", "a"), ("s", "k"), ("s", "b")])),
        r_rows=st.lists(ROWS["r"], max_size=6),
        s_rows=st.lists(ROWS["s"], max_size=4),
        configs=st.lists(views, min_size=1, max_size=3),
    )
    def start(self, indexed, r_rows, s_rows, configs):
        self.db = Database()
        self.models = {}
        for name, schema in SCHEMAS.items():
            table = self.db.create_table(name, schema)
            table.history = ModLog(chunk_size=CHUNK)
            columns = [c for t, c in sorted(indexed) if t == name]
            for column in columns:
                table.create_index(column)
            self.models[name] = Model(schema.names, FLOATS[name], len(columns))
        self._write("r", "insert", r_rows, None)
        self._write("s", "insert", s_rows, None)
        self.coordinator = MaintenanceCoordinator(self.db)
        self.t = -1
        self.share = [4, 4]
        self.fuse = Fuse()
        self.fused = col("R.a") != lit(self.fuse)
        #: view name -> (spec, cost functions, C, entries checked so far).
        self.views: dict[str, list] = {}
        self.created = 0
        #: Per table: the truncation point its log must be at.
        self.base = dict.fromkeys(SCHEMAS, 0)
        self.held = []
        for config in configs:
            self._add(*config)

    # -- helpers ---------------------------------------------------------

    def _policy(self, kind: str) -> Policy:
        if kind == "naive":
            return NaivePolicy()
        if kind == "online":
            return OnlinePolicy()
        return Scripted(self.share)

    def _add(self, which, kind, cost, fused) -> None:
        spec = self.FAMILY[which]
        if fused:
            spec = replace(spec, filters=spec.filters + (self.fused,))
        name = f"v{self.created}"
        self.created += 1
        functions, limit = COSTS[cost]
        self.coordinator.add_view(
            ViewConfig(name, spec, self._policy(kind), functions, limit)
        )
        self.views[name] = [spec, functions, limit, 0]

    def _applied(self, name: str) -> list[int]:
        """The LSNs at which the registered views have applied table
        ``name``: what its log must leave readable."""
        return [
            delta.applied_lsn
            for _, m in self.coordinator.iter_maintainers()
            for delta in m.view.deltas.values()
            if delta.table.name == name
        ]

    def _truncated(self, names) -> None:
        """Expect each log in ``names`` truncated as far as its readers
        let ``ModLog.truncate`` go: whole chunks at or below the oldest
        applied LSN, all of them with no reader."""
        for name in names:
            table = self.db.table(name)
            upto = min(self._applied(name), default=table.current_lsn)
            self.base[name] = max(self.base[name], upto // CHUNK * CHUNK)

    def _write(self, name, op, payload, changes):
        table, model = self.db.table(name), self.models[name]
        before, charged = self.db.counter.snapshot(), model.charges()
        lsn = table.current_lsn
        failed = model_failed = False
        if op == "insert":
            for row in payload:
                model.insert(row)
            lsns = table.insert_rows(payload)
        else:
            rids = resolve(model, op, payload)
            try:
                for i, rid in enumerate(rids):
                    if op == "delete":
                        model.delete(rid)
                    else:
                        model.update(
                            rid, {c: values[i] for c, values in changes.items()}
                        )
            except BadRid:
                model_failed = True
            try:
                if op == "delete":
                    lsns = table.delete_rids(rids)
                else:
                    lsns = table.update_rids(rids, changes)
            except ExecutionError:
                failed = True
        assert failed == model_failed
        if not failed:
            assert lsns == range(lsn + 1, model.current_lsn + 1)
        self._charged(before, charged, model)

    def _charged(self, before, charged, model) -> None:
        after = self.db.counter.snapshot()
        moved = {f: after[f] - before[f] for f in after if after[f] != before[f]}
        now = model.charges()
        assert moved == {
            f: n - charged.get(f, 0) for f, n in now.items()
            if n != charged.get(f, 0)
        }

    def _step(self, writes, refresh=()):
        for batch in writes:
            self._write(*batch)
        self.t += 1
        return self.coordinator.step(self.t, refresh=refresh)

    def _ledgers(self):
        return {
            name: (len(m.ledger.entries),
                   tuple(d.applied_lsn for d in m.view.deltas.values()))
            for name, m in self.coordinator.iter_maintainers()
        }

    # -- rounds ----------------------------------------------------------

    @rule(writes=arrivals, share=shares,
          forced=st.sets(st.integers(0, MAX_VIEWS - 1)))
    def step(self, writes, share, forced):
        self.share[:] = share
        names = self.coordinator.views
        refresh = [name for i, name in enumerate(names) if i in forced]
        entries = self._step(writes, refresh)
        assert list(entries) == list(names)
        for name, entry in entries.items():
            assert entry.forced == (name in refresh)
            if entry.forced:
                assert entry.action == entry.pre_state
        self._truncated(SCHEMAS if names else ())

    @precondition(lambda self: self.views)
    @rule(pick=st.integers(0, MAX_VIEWS - 1), kind=st.sampled_from(POLICIES))
    def set_policy(self, pick, kind):
        names = self.coordinator.views
        self.coordinator.maintainer(names[pick % len(names)]).set_policy(
            self._policy(kind)
        )

    @precondition(lambda self: len(self.views) < MAX_VIEWS)
    @rule(config=views)
    def add_view(self, config):
        self._add(*config)

    @precondition(lambda self: self.views)
    @rule(pick=st.integers(0, MAX_VIEWS - 1))
    def remove_view(self, pick):
        names = self.coordinator.views
        name = names[pick % len(names)]
        self.coordinator.remove_view(name)
        del self.views[name]
        self._truncated(SCHEMAS)

    # -- the log -----------------------------------------------------------

    @rule(name=st.sampled_from(sorted(SCHEMAS)))
    def truncate(self, name):
        self.db.table(name).history.truncate()
        self._truncated([name])

    @rule(name=st.sampled_from(sorted(SCHEMAS)), pick=st.integers(0, 10**6),
          span=st.integers(0, 12), hold=st.booleans())
    def read(self, name, pick, span, hold):
        table, model = self.db.table(name), self.models[name]
        lsn = pick % (table.current_lsn + 1)
        # The table's retained snapshot, or one rolled forward from it.
        snapshot = table.snapshot(lsn)
        for held in self.held + [snapshot]:
            self._check_snapshot(held)
        if hold:
            self.held = (self.held + [snapshot])[-3:]
        # The log window ending there, or at the truncation point if that
        # is later.
        hi = max(lsn, table.history.truncated_lsn)
        lo = max(table.history.truncated_lsn, hi - span)
        olds, news = table.history.columns(lo, hi)
        assert list(zip(olds, news)) == model.log[lo:hi]

    def _check_snapshot(self, snapshot) -> None:
        model = self.models[snapshot.table.name]
        visible = model.rows_at(snapshot.lsn)
        # The count first: reading the rows would recount them.
        assert snapshot.count() == len(visible)
        assert snapshot.row_list() == visible
        values = {value for values, _, _ in model.versions for value in values}
        for pos, column in enumerate(model.names):
            keyed = snapshot.keyed(column)
            for key in values | {-9}:
                assert keyed[key] == [row for row in visible if row[pos] == key]

    # -- faults ------------------------------------------------------------

    @precondition(lambda self: self.views)
    @rule(writes=arrivals, n=st.integers(1, 6))
    def predicate_raises(self, writes, n):
        """A view predicate raises at its ``n``-th row: the error reaches
        the caller once the round is over.  Only the culprit's view-round
        goes unbooked; every other view, the ones after it included,
        executes and books its entry.  Every view stays at a consistent
        applied LSN, and the logs are truncated as after a round that
        raised nothing."""
        before = self._ledgers()
        self.fuse.left = n
        try:
            self._step(writes)
        except Blown:
            unbooked = 1
        else:
            unbooked = 0
        finally:
            self.fuse.left = None
        after = self._ledgers()
        booked = [after[v][0] - before[v][0] for v in before]
        assert sorted(booked) == [0] * unbooked + [1] * (len(booked) - unbooked)
        self._truncated(SCHEMAS)

    @precondition(lambda self: self.views)
    @rule(writes=arrivals, n=st.integers(1, 4))
    def subscriber_raises(self, writes, n):
        """A ``calibration`` subscriber raises on the ``n``-th flush of a
        round.  The error reaches the caller once the round is over.  The
        flush it was told of is applied and its view-round booked: the
        samples are emitted after the ledger entry and ``record_action``.
        Every other view, the ones after it included, executes and books
        its entry.  The logs are truncated as far as every view's applied
        LSN allows."""
        names = self.coordinator.views
        before = self._ledgers()
        told: list[str] = []

        def calibrate(sample):
            told.append(sample.view)
            if len(told) == n:
                raise Blown("a subscriber raised mid-emit")

        with events.subscribe("calibration", calibrate):
            try:
                self._step(writes)
            except Blown:
                culprit = told[n - 1]
            else:
                assert len(told) < n
                culprit = None
        self._truncated(SCHEMAS)
        after = self._ledgers()
        for name in names:
            (entries, applied), (entries_now, applied_now) = (
                before[name], after[name]
            )
            assert entries_now - entries == 1
            if name == culprit:
                assert applied_now != applied

    # -- invariants ----------------------------------------------------------

    @invariant()
    def views_equal_the_oracle(self):
        for name, m in self.coordinator.iter_maintainers():
            lsns = {a: d.applied_lsn for a, d in m.view.deltas.items()}
            expected = oracle_contents(self.models, self.views[name][0], lsns)
            assert m.view.contents() == expected, name

    @invariant()
    def entries_obey_definition_1(self):
        for name, m in self.coordinator.iter_maintainers():
            record = self.views[name]
            _, functions, limit, checked = record
            entries = m.ledger.entries
            for entry in entries[checked:]:
                post = [p - a for p, a in zip(entry.pre_state, entry.action)]
                assert min(entry.action) >= 0 and min(post) >= 0
                if entry.forced:
                    continue
                cost = 0.0
                for f, k in zip(functions, post):
                    cost += f(k)
                assert cost <= limit + 1e-9, (name, entry)
            record[3] = len(entries)

    @invariant()
    def tables_equal_their_models(self):
        for name, model in self.models.items():
            table = self.db.table(name)
            assert table.current_lsn == len(table.history) == model.current_lsn
            assert table.version_count() == len(model.versions)
            assert table.live_rids() == model.live_rids()
            assert table.live_count == len(model.live_rids())
            log = table.history
            assert log.truncated_lsn == self.base[name]
            assert all(log.truncated_lsn <= lsn for lsn in self._applied(name))


SETTINGS = settings(
    max_examples=12, stateful_step_count=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class SPJMachine(OracleMachine):
    FAMILY = FAMILIES["spj"]


class ExtremumMachine(OracleMachine):
    FAMILY = FAMILIES["extremum"]


class AdditiveMachine(OracleMachine):
    FAMILY = FAMILIES["additive"]


SPJMachine.TestCase.settings = SETTINGS
ExtremumMachine.TestCase.settings = SETTINGS
AdditiveMachine.TestCase.settings = SETTINGS
TestSPJ = SPJMachine.TestCase
TestExtremum = ExtremumMachine.TestCase
TestAdditive = AdditiveMachine.TestCase
