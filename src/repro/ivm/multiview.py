"""Coordinated maintenance of multiple views over shared base tables.

The paper's related work (Colby et al., "Supporting multiple view
maintenance policies") studies warehouses where different summary tables
are maintained under different policies.  That concern is orthogonal to
the paper's per-view asymmetric scheduling -- which is exactly why the two
compose: this module hosts any number of materialized views over one
database, each with its **own** scheduling policy and response-time
constraint, advancing them under a single shared clock.

Delta tables are per-view (two views at different staleness read the same
base table at different LSNs -- the MVCC substrate makes that free), but
maintenance rounds are **table-at-a-time**: one ``step()`` plans every
view first (pull deltas, consult policies), then runs one shared blocked
scan per base table covering all the planned delta windows
(:mod:`repro.ivm.sharedscan`), and fans the pre-scanned batches out to
each subscriber's delta-join.  The scan's cost is charged once at the
coordinator instead of once per view, which is where the fleet-scale
economics come from; per-view join and fold work stays charged inside
each view's own cost window at the fan-out point, so the per-view ledger
is what a view maintained alone would book, less its windows' read.
This is the only kind of round there is: view-at-a-time maintenance is a
:class:`~repro.ivm.maintainer.ViewMaintainer` stepped on its own
(``maintainer.step(t)``), a round of one that reads its windows on
demand, inside the view's flush windows -- the reference the
differential suite compares a coordinated round against.  A round may
force some of its views (``step(t, refresh=names)``): those flush
everything pending, the rest ask their policies, and all of them share
the round's scans.

The fan-out **evaluates** once per distinct asker, too: views whose
delta specs are structurally equal (:meth:`QuerySpec.key`), flushing the
same window with their other tables at the same LSNs, run one delta
query between them; and views registered one after another materialize
from one query per distinct spec.  It **folds** once per distinct
state: views materialized from one evaluation (and one aggregate
function) hold one :class:`~repro.ivm.view.Contents` state, the first
holder to fold an input makes the fold, and the others adopt it.  When
the plans show the round runs every holder of a state alike (same
model, pre-state, action and ``forced``), the first folds the state in
place; otherwise it folds a copy, and a view taken out of lock step --
a policy that decides otherwise, a forced refresh, a direct ``step`` --
holds a state of its own from then on.  A sole holder folds in place.
Each view is still charged its own statement and its own fold -- the
charges of the one execution are charged again to every view that
reuses it, inside the view's own cost window -- so simulated costs are
exactly what they were; only the wall-clock work is shared.  Nothing
selects this: a fleet of one simply never finds a result to reuse.

A view-round costs its delta pull, its policy's ``observe`` and
``record_action``, and its flush's lookups of the query and fold
another view already made.  What about it is not the view's own state
is worked out once per round per distinct case, by the first view to
ask, and kept in the round's
:class:`~repro.ivm.sharedscan.SharedScanRound`: the telemetry probes
(the recorder, the wanted event kinds, whether decisions are observed),
made once when the round is; the action per ``(model, policy class,
pre)`` of a policy class that declares a pure ``decide``
(:class:`~repro.core.policies.Policy`; NAIVE does), unless somebody
observes decisions, when every view decides for itself; Definition 1
and the prediction per ``(model, pre, action, forced)``; the window's
batch per ``(table, LSN window)`` and its fingerprint verdict per column
signature; the fold of each input into each shared state, and the
charges of a work view-round on a state whose holders all run alike,
which the others replay unless somebody consumes calibration samples;
and the ledger entry of a view-round that did no work -- idle, or flushing
only windows the fingerprint suppressed, which is metered no more than
an idle one (``sim_ms`` 0.0) -- per
``(arrivals, pre, action, predicted, backlog)``, the same immutable
:class:`~repro.ivm.ledger.RoundEntry` appended to each such view's own
ledger.  All of that dies with the round.  Two things are shared for
the coordinator's life: views registered with cost functions equal
**by value** and an equal limit are priced by one
:class:`~repro.core.problem.CostModel`, which is only ever read (its
table of priced batch sizes aside, which assumes what ``CostModel``
already documents: pure cost functions); and the structural keys of
every view's delta queries and fold input are interned to small ints
at registration, so a round's evaluation lookups hash ints.  What stays
per view is what is the view's: its delta pull, its own policy object
(never aliased; ``observe`` and ``record_action`` are made even when
idle, since ONLINE's estimator must see the zero-arrival steps, and
``decide`` too unless the class declares it pure), the cost window of
a real flush, and its own entry for a round that did work.  A
coordinator of one view runs the same lines and never finds anything
to share.

One view's :class:`~repro.core.policies.PolicyError` -- its policy
raising, or Definition 1 refusing its action -- is that view's: it gets
no entry and nothing applied, every other view's round completes, and
the error is raised when the round is over.  So is any other exception
one view raises (its predicate, or an event subscriber told of its
flush): the views after it still execute.

After each round the coordinator asks every
:class:`~repro.engine.table.ModLog` a registered view subscribes to to
truncate history all subscribing views have incorporated, so a
long-running fleet does not accumulate an unbounded modification log.

For notification-driven refresh semantics on top of the same machinery,
see :mod:`repro.pubsub`: its broker is a client of one coordinator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.core.costfuncs import CostFunction
from repro.core.policies import Policy, PolicyError
from repro.core.problem import CostModel
from repro.engine.database import Database
from repro.engine.query import QuerySpec
from repro.engine.table import ModLog
from repro.ivm.ledger import RoundEntry, ViewLedger, float_total
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.sharedscan import Evaluations, SharedScanRound
from repro.ivm.view import Contents, MaterializedView


@dataclass(frozen=True)
class ViewConfig:
    """Registration record for one coordinated view."""

    name: str
    query: QuerySpec
    policy: Policy
    cost_functions: Sequence[CostFunction]
    limit: float
    scheduled_aliases: tuple[str, ...] | None = None


class MaintenanceCoordinator:
    """Hosts several independently scheduled views over one database."""

    def __init__(self, database: Database, shared_scans: bool = True):
        if not shared_scans:  # still passed, as True, by the benchmark harness
            raise ValueError(
                "shared_scans=False is gone: view-at-a-time maintenance is "
                "each view's own ViewMaintainer.step(t), with no coordinator"
            )
        self.database = database
        self._maintainers: dict[str, ViewMaintainer] = {}
        self._clock = -1
        #: The materialization queries of the views registered since the
        #: clock last moved, so a run of registrations runs each distinct
        #: one once.
        self._materialized = Evaluations(database)
        #: (cost functions, limit) -> the one model pricing every view
        #: registered with them, for the coordinator's life.
        self._models: dict[tuple, CostModel] = {}
        #: The mod logs registered views subscribe to, each with how many
        #: of their delta tables read it.
        self._logs: Counter[ModLog] = Counter()
        #: Structural key -> a small int standing for it (and, for a
        #: delta query, the one spec object views run for it), for the
        #: coordinator's life: what registered views key their delta
        #: queries and fold inputs by, so a round's lookups hash ints,
        #: not nested tuples.
        self._interned: dict[Hashable, tuple] = {}

    def add_view(self, config: ViewConfig) -> MaterializedView:
        """Materialize and register a view; returns it."""
        if config.name in self._maintainers:
            raise ValueError(f"view {config.name!r} already registered")
        view = MaterializedView(
            config.name, self.database, config.query, self._materialized
        )
        maintainer = self._maintainers[config.name] = ViewMaintainer(
            view,
            config.cost_functions,
            limit=config.limit,
            policy=config.policy,
            scheduled_aliases=config.scheduled_aliases,
        )
        model = maintainer.model
        maintainer.model = self._models.setdefault(
            (model.cost_functions, model.limit), model
        )
        view.intern_keys(self._interned)
        self._logs.update(delta.log for delta in view.deltas.values())
        return view

    def remove_view(self, name: str) -> None:
        """Drop a registered view, releasing everything it held.

        The view's delta subscriptions on the shared mod logs are closed
        (letting the logs truncate history only this view still pinned),
        and so is its hold on contents other views share: it keeps a
        copy, and the views left fold the state as if it never held it.
        The maintainer object itself (ledger included) is dropped, and
        with it the view's whole record: callers wanting a post-mortem
        should grab :meth:`maintainer` first.
        """
        maintainer = self._maintainers.pop(name, None)
        if maintainer is None:
            raise KeyError(f"no view {name!r}")
        view = maintainer.view
        logs = Counter(delta.log for delta in view.deltas.values())
        view.close()
        dropped = sum(log.truncate() for log in logs)
        self._logs -= logs  # a log nobody reads any more drops out
        recorder = obs.get_recorder()
        if recorder is not None and dropped:
            recorder.counter("ivm.coordinator.log_truncated", dropped)

    @property
    def views(self) -> tuple[str, ...]:
        """Registered view names."""
        return tuple(self._maintainers)

    def maintainer(self, name: str) -> ViewMaintainer:
        """The maintainer driving one view."""
        try:
            return self._maintainers[name]
        except KeyError:
            raise KeyError(f"no view {name!r}") from None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def step(
        self, t: int | None = None, refresh: Iterable[str] = ()
    ) -> dict[str, RoundEntry]:
        """Advance every view one time step; returns per-view entries.

        Call after applying the step's base-table modifications.  The
        views named in ``refresh`` are forced fully up to date in the
        same round (an unknown name raises :class:`KeyError` before any
        view is planned); the rest ask their policies.  The round is
        table-at-a-time: every view's planned window is collected first,
        each base table's delta log is scanned once for all of them, and
        the batches fan out.
        """
        forced = set(refresh)
        for name in forced:
            self.maintainer(name)
        return self._round(self._maintainers, t, forced)

    def refresh(
        self, names: Sequence[str] | None = None, t: int | None = None
    ) -> dict[str, RoundEntry]:
        """Force the named views (default: all) fully up to date; the
        others sit the round out."""
        if names is None:
            targets = self._maintainers
        else:
            targets = {name: self.maintainer(name) for name in names}
        return self._round(targets, t, set(targets))

    def _round(
        self,
        maintainers: dict[str, ViewMaintainer],
        t: int | None,
        forced: AbstractSet[str],
    ) -> dict[str, RoundEntry]:
        """Plan ``maintainers``, scan once per table, then execute each.

        The shared scan's own cost (one blocked pass per table, plus any
        fingerprint comparisons) is metered in its own window and charged
        to the coordinator -- it appears in ``ivm.coordinator.scan_ms``,
        not in any view's ledger.  Each view's delta-join then runs inside
        that view's own cost window exactly as it would standing alone.

        A view whose policy raises :class:`PolicyError`, or whose action
        Definition 1 refuses, is left as a refused standalone step leaves
        it (no entry, nothing applied) while every other view's round and
        the log truncation complete.  Any other exception from one view
        (a raising view predicate, a raising event subscriber) is that
        view's too: the later views still execute.  Then the error is
        raised: the view's own when it is the only one, one naming each
        refusal when all are refusals, else the first that is not.  An
        exception outside every view (the shared scan) ends the round
        where it is raised, and the logs are still truncated.
        """
        self._clock = self._clock + 1 if t is None else t
        self._materialized = Evaluations(self.database)
        round_ = SharedScanRound(self.database)
        failed: list[tuple[str, Exception]] = []
        planned = []
        # Shared state -> how the round runs each holder of it that works.
        runs: dict[Contents, list[tuple]] = {}
        try:
            for name, maintainer in maintainers.items():
                force = name in forced
                try:
                    plan = maintainer.plan_step(self._clock, force, round_)
                except Exception as exc:
                    failed.append((name, exc))
                    continue
                planned.append((name, maintainer, plan, force))
                action = plan[3]
                if any(action):
                    view = maintainer.view
                    for alias, delta, k in zip(
                        maintainer.aliases, maintainer._scheduled, action
                    ):
                        # More than is pending is Definition 1's to refuse,
                        # in the execute half, before any window is asked for.
                        if 0 < k <= delta.size:
                            round_.request(
                                delta, k, view.referenced_columns(alias)
                            )
                    if view.state.holders > 1:
                        # Equal pending counts over one table's log are
                        # equal applied LSNs, so equal runs fold the same
                        # evaluations.
                        runs.setdefault(view.state, []).append((
                            maintainer.model, maintainer.aliases, plan[2],
                            action, force,
                        ))
            # A state whose every holder works, and alike, is folded in
            # place by the first and adopted by the others.
            round_.memo.lockstep.update(
                state for state, ways in runs.items()
                if len(ways) == state.holders
                and ways.count(ways[0]) == len(ways)
            )
            with self.database.counter.window() as window:
                round_.run()
            obs.counter("ivm.coordinator.rounds")
            obs.observe("ivm.coordinator.scan_ms", window.elapsed_ms)
            entries = {}
            for name, maintainer, plan, force in planned:
                try:
                    entries[name] = maintainer.execute_planned(
                        *plan, forced=force, shared=round_
                    )
                except Exception as exc:
                    failed.append((name, exc))
                    # Its mates may not fail alike: none folds in place.
                    round_.memo.lockstep.discard(maintainer.view.state)
        finally:
            # Safe after any raise: no reader's applied LSN is passed.
            self._truncate_logs()
        if len(failed) == 1:
            raise failed[0][1]
        for _, exc in failed:
            if not isinstance(exc, PolicyError):
                raise exc
        if failed:
            raise PolicyError(
                f"{len(failed)} views refused: "
                + "; ".join(f"{name}: {exc}" for name, exc in failed)
            )
        return entries

    def _truncate_logs(self) -> None:
        """Reclaim mod-log history every subscribing view has applied."""
        dropped = sum(log.truncate() for log in self._logs)
        if dropped:
            obs.counter("ivm.coordinator.log_truncated", dropped)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def total_cost_ms(self) -> float:
        """Engine-measured maintenance cost summed over all views."""
        return float_total(self.cost_breakdown().values())

    def cost_breakdown(self) -> dict[str, float]:
        """Per-view engine-measured maintenance cost."""
        return {
            name: m.ledger.total_sim_ms
            for name, m in self._maintainers.items()
        }

    def iter_maintainers(self) -> Iterator[tuple[str, ViewMaintainer]]:
        """(name, maintainer) pairs."""
        yield from self._maintainers.items()

    def ledgers(self) -> dict[str, ViewLedger]:
        """Per-view maintenance ledgers, keyed by view name."""
        return {name: m.ledger for name, m in self._maintainers.items()}

    def __repr__(self) -> str:
        return f"MaintenanceCoordinator(views={list(self._maintainers)})"
