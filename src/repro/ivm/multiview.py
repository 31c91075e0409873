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
and ``ivm.view.*`` metrics are what a view maintained alone would book.
This is the only kind of round a coordinator runs; view-at-a-time
maintenance is a :class:`~repro.ivm.maintainer.ViewMaintainer` stepped
on its own (``maintainer.step(t)``), which is also the reference the
differential suite compares a round against.

The fan-out **evaluates** once per distinct asker, too: views whose
delta specs are structurally equal (:meth:`QuerySpec.key`), flushing the
same window with their other tables at the same LSNs, run one delta
query between them and each fold its result; and views registered one
after another materialize from one query per distinct spec.  Each view
is still charged its own statement -- the charges of the one execution
are charged again to every view that reuses it -- so simulated costs are
exactly what they were; only the wall-clock work is shared.  Nothing
selects this: a fleet of one simply never finds a result to reuse.

After each round the coordinator asks every touched
:class:`~repro.engine.table.ModLog` to truncate history all subscribing
views have incorporated, so a long-running fleet does not accumulate an
unbounded modification log.

For notification-driven refresh semantics on top of the same machinery,
see :mod:`repro.pubsub`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import obs
from repro.core.costfuncs import CostFunction
from repro.core.policies import Policy
from repro.engine.database import Database
from repro.engine.query import QuerySpec
from repro.ivm.ledger import (
    DEFAULT_SUMMARY_LIMIT,
    RoundEntry,
    ViewLedger,
    float_total,
)
from repro.ivm.ledger import ledger_summary as _render_ledger_summary
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.sharedscan import Evaluations, SharedScanRound
from repro.ivm.view import MaterializedView


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

    def add_view(self, config: ViewConfig) -> MaterializedView:
        """Materialize and register a view; returns it."""
        if config.name in self._maintainers:
            raise ValueError(f"view {config.name!r} already registered")
        view = MaterializedView(
            config.name, self.database, config.query, self._materialized
        )
        self._maintainers[config.name] = ViewMaintainer(
            view,
            config.cost_functions,
            limit=config.limit,
            policy=config.policy,
            scheduled_aliases=config.scheduled_aliases,
        )
        return view

    def remove_view(self, name: str) -> None:
        """Drop a registered view, releasing everything it held.

        The view's delta subscriptions on the shared mod logs are closed
        (letting the logs truncate history only this view still pinned),
        and its ``ivm.view.<id>.*`` metric series are removed from the
        installed recorder so dashboards over a churning fleet do not
        accumulate dead series.  The maintainer object itself (ledger
        included) is dropped; callers wanting a post-mortem should grab
        :meth:`maintainer` first.
        """
        maintainer = self._maintainers.pop(name, None)
        if maintainer is None:
            raise KeyError(f"no view {name!r}")
        view = maintainer.view
        logs = {id(d.log): d.log for d in view.deltas.values()}
        view.close()
        dropped = sum(log.truncate() for log in logs.values())
        recorder = obs.get_recorder()
        if recorder is not None:
            if dropped:
                recorder.counter("ivm.coordinator.log_truncated", dropped)
            recorder.registry.remove_prefix(
                f"ivm.view.{maintainer.ledger.metric_id}."
            )

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

    def step(self, t: int | None = None) -> dict[str, RoundEntry]:
        """Advance every view one time step; returns per-view entries.

        Call after applying the step's base-table modifications.  The
        round is table-at-a-time: every view's planned window is
        collected first, each base table's delta log is scanned once for
        all of them, and the batches fan out.
        """
        return self._round(self._maintainers, t, forced=False)

    def refresh(
        self, names: Sequence[str] | None = None, t: int | None = None
    ) -> dict[str, RoundEntry]:
        """Force the named views (default: all) fully up to date."""
        if names is None:
            return self._round(self._maintainers, t, forced=True)
        targets = {name: self.maintainer(name) for name in names}
        return self._round(targets, t, forced=True)

    def _round(
        self,
        maintainers: dict[str, ViewMaintainer],
        t: int | None,
        forced: bool,
    ) -> dict[str, RoundEntry]:
        """Plan ``maintainers``, scan once per table, then execute each.

        The shared scan's own cost (one blocked pass per table, plus any
        fingerprint comparisons) is metered in its own window and charged
        to the coordinator -- it appears in ``ivm.coordinator.scan_ms``,
        not in any view's ledger.  Each view's delta-join then runs inside
        that view's own cost window exactly as it would standing alone.
        """
        self._clock = self._clock + 1 if t is None else t
        self._materialized = Evaluations(self.database)
        planned = [
            (name, maintainer, maintainer.plan_step(self._clock, forced))
            for name, maintainer in maintainers.items()
        ]
        round_ = SharedScanRound(self.database)
        for _, maintainer, (_, _, _, action) in planned:
            for alias, k in zip(maintainer.aliases, action):
                if k:
                    round_.request(
                        maintainer.view.deltas[alias],
                        k,
                        maintainer.view.referenced_columns(alias),
                    )
        with self.database.counter.window() as window:
            round_.run()
        obs.counter("ivm.coordinator.rounds")
        obs.observe("ivm.coordinator.scan_ms", window.elapsed_ms)
        entries = {
            name: maintainer.execute_planned(*plan, forced=forced, shared=round_)
            for name, maintainer, plan in planned
        }
        self._truncate_logs()
        return entries

    def _truncate_logs(self) -> None:
        """Reclaim mod-log history every subscribing view has applied."""
        logs = {
            id(d.log): d.log
            for m in self._maintainers.values()
            for d in m.view.deltas.values()
        }
        dropped = sum(log.truncate() for log in logs.values())
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

    def ledger_summary(self, limit: int | None = DEFAULT_SUMMARY_LIMIT) -> str:
        """Fixed-width per-view cost table (companion to ``slo_summary``).

        Rows are ordered by simulated cost (descending, ties by view id)
        so the output is deterministic regardless of registration order.
        At fleet scale the table is capped at ``limit`` rows (with an
        aggregate row for the remainder); pass ``limit=None`` for the
        full table.
        """
        return _render_ledger_summary(
            (m.ledger for m in self._maintainers.values()),
            self.database.counter.model,
            limit=limit,
        )

    def __repr__(self) -> str:
        return f"MaintenanceCoordinator(views={list(self._maintainers)})"
