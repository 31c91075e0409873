"""The view-maintenance runtime: policies driving a live view.

:class:`ViewMaintainer` is the "actual system" of the paper's Figure 5
validation experiment.  Where :func:`repro.core.simulator.simulate_policy`
*computes* plan cost from calibrated cost functions, the maintainer
*executes* the plan against the live engine and measures real (simulated-
clock) cost per action.  Comparing the two is exactly the paper's
simulation-validation methodology.

Usage sketch::

    maintainer = ViewMaintainer(view, cost_functions, limit=C, policy=OnlinePolicy())
    for t, modifications in enumerate(stream):
        apply_modifications_to_base_tables(modifications)
        maintainer.step(t)          # pulls deltas, consults the policy, acts
    maintainer.refresh(final=True)  # forced view refresh

The maintainer enforces the response-time constraint with the *calibrated*
cost functions (the planner's world model); the log records both the
predicted cost of every action and the engine-measured actual cost, so
their divergence is observable (Figure 5 plots it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.obs import attrib, decisions, events, slo
from repro.obs import calibration as obs_calibration
from repro.core.costfuncs import CostFunction
from repro.core.policies import Policy, PolicyError
from repro.ivm.ledger import RoundEntry, ViewLedger, float_total
from repro.ivm.maintenance import apply_batch, full_refresh
from repro.ivm.view import MaterializedView


@dataclass
class StepRecord:
    """What happened at one time step."""

    t: int
    arrivals: tuple[int, ...]
    pre_state: tuple[int, ...]
    action: tuple[int, ...]
    predicted_cost: float
    actual_cost_ms: float


@dataclass
class MaintenanceLog:
    """The full run record: per-step entries plus summary statistics."""

    aliases: tuple[str, ...]
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def total_predicted_cost(self) -> float:
        """Sum of cost-function-predicted action costs (simulation view)."""
        return float_total(s.predicted_cost for s in self.steps)

    @property
    def total_actual_cost_ms(self) -> float:
        """Sum of engine-measured action costs (live-system view)."""
        return float_total(s.actual_cost_ms for s in self.steps)

    @property
    def action_count(self) -> int:
        """Number of steps with a non-zero action."""
        return sum(1 for s in self.steps if any(s.action))

    def actions_plan(self) -> list[tuple[int, ...]]:
        """The executed action sequence (comparable to a core ``Plan``)."""
        return [s.action for s in self.steps]


class ViewMaintainer:
    """Drives a live materialized view under a response-time constraint."""

    def __init__(
        self,
        view: MaterializedView,
        cost_functions: Sequence[CostFunction],
        limit: float,
        policy: Policy,
        verify: bool = False,
        scheduled_aliases: Sequence[str] | None = None,
    ):
        self.view = view
        # The scheduling state vector covers only the tables that receive
        # modifications (the paper's experiments schedule over PartSupp and
        # Supplier; Nation and Region are static).  Unscheduled tables must
        # stay modification-free, which _execute asserts.
        self.aliases = (
            tuple(scheduled_aliases)
            if scheduled_aliases is not None
            else view.spec.aliases
        )
        unknown = set(self.aliases) - set(view.spec.aliases)
        if unknown:
            raise ValueError(
                f"scheduled aliases {sorted(unknown)} not in view "
                f"{view.spec.aliases}"
            )
        if len(cost_functions) != len(self.aliases):
            raise ValueError(
                f"need one cost function per scheduled alias "
                f"{self.aliases}, got {len(cost_functions)}"
            )
        self.cost_functions = tuple(cost_functions)
        self.limit = float(limit)
        self.policy = policy
        self.verify = verify
        self.policy.reset(self.cost_functions, self.limit)
        self.log = MaintenanceLog(aliases=self.aliases)
        self.ledger = ViewLedger(view=view.name, aliases=self.aliases)
        self._clock = -1

    # ------------------------------------------------------------------

    def pre_state(self) -> tuple[int, ...]:
        """Current per-alias pending counts (after a pull)."""
        return tuple(self.view.deltas[a].size for a in self.aliases)

    def set_policy(self, policy: Policy) -> Policy:
        """Swap the scheduling policy mid-run; returns the previous one.

        The actuation path of the policy governor
        (:mod:`repro.ivm.governor`): the incoming policy is reset against
        this view's cost functions and limit, so estimator state starts
        fresh while the backlog and the view itself carry over
        untouched.  Safe between rounds (plan/execute pairs must not be
        split across a swap).
        """
        previous = self.policy
        self.policy = policy
        policy.reset(self.cost_functions, self.limit)
        return previous

    def predicted_refresh_cost(self, state: Sequence[int]) -> float:
        """``f(s)`` under the calibrated cost functions.

        Added left to right like ``CostModel.refresh_cost`` (``sum()``
        compensates on CPython >= 3.12), so this and the policy's own
        ``refresh_cost`` agree to the last bit.
        """
        total = 0
        for f, k in zip(self.cost_functions, state, strict=True):
            total = total + f(k)
        return total

    def step(self, t: int | None = None) -> StepRecord:
        """Run one time step: ingest new modifications, consult the policy.

        Call after applying the step's base-table modifications.  Raises
        :class:`~repro.core.policies.PolicyError` when the policy's action
        leaves a full post-action state (constraint violation).
        """
        return self.execute_planned(*self.plan_step(t))

    def refresh(self, t: int | None = None) -> StepRecord:
        """Force the view up to date (the paper's refresh request)."""
        return self.execute_planned(*self.plan_refresh(t), forced=True)

    def plan_step(
        self, t: int | None = None
    ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The ingest-and-decide half of :meth:`step`, without executing.

        Returns ``(t, arrivals, pre_state, action)`` for
        :meth:`execute_planned`.  The multi-view coordinator plans every
        view first so one shared scan per table can cover all the planned
        windows, then executes.
        """
        self._clock = self._clock + 1 if t is None else t
        t = self._clock
        arrivals = self._pull_all()
        self.policy.observe(t, arrivals)
        pre = self.pre_state()
        # Decisions emitted by the policy are tagged with the owning view
        # so execute_planned can join them with the round's actual cost.
        with decisions.scope(view=self.view.name):
            action = tuple(int(x) for x in self.policy.decide(t, pre))
        return t, arrivals, pre, action

    def plan_refresh(
        self, t: int | None = None
    ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Like :meth:`plan_step`, but the action flushes everything."""
        self._clock = self._clock + 1 if t is None else t
        t = self._clock
        arrivals = self._pull_all()
        self.policy.observe(t, arrivals)
        pre = self.pre_state()
        return t, arrivals, pre, pre

    def _pull_all(self) -> tuple[int, ...]:
        """Ingest new modifications on every base table; return the
        scheduled-alias arrival counts."""
        counts = {
            alias: self.view.deltas[alias].pull()
            for alias in self.view.spec.aliases
        }
        return tuple(counts[alias] for alias in self.aliases)

    # ------------------------------------------------------------------

    def execute_planned(
        self,
        t: int,
        arrivals: tuple[int, ...],
        pre: tuple[int, ...],
        action: tuple[int, ...],
        forced: bool = False,
        shared=None,
    ) -> StepRecord:
        """Execute one planned round (the second half of :meth:`step`).

        ``shared`` is an already-run
        :class:`~repro.ivm.sharedscan.SharedScanRound` covering this
        round's planned windows; when given, per-alias flushes consume
        its pre-scanned batches (and skip fingerprint-suppressed no-op
        windows entirely) instead of re-reading the mod log, and fold a
        delta query another view of the round already ran instead of
        running it again -- charged as if they had.
        """
        for alias in self.view.spec.aliases:
            if alias not in self.aliases and self.view.deltas[alias].size:
                raise PolicyError(
                    f"unscheduled base table {alias!r} received "
                    f"modifications; add it to scheduled_aliases"
                )
        if any(a < 0 or a > s for a, s in zip(action, pre)):
            raise PolicyError(
                f"{self.policy!r} at t={t}: action {action} exceeds "
                f"backlog {pre}"
            )
        post = tuple(s - a for s, a in zip(pre, action))
        if not forced and self.predicted_refresh_cost(post) > self.limit + 1e-9:
            raise PolicyError(
                f"{self.policy!r} at t={t}: post-action state {post} "
                f"violates C={self.limit}"
            )
        # The round's two telemetry probes: the recorder, and the event
        # kinds somebody wants (an empty dict with telemetry off).
        recorder = obs.get_recorder()
        wanted = events.installed().wanted
        if recorder is not None or "slo" in wanted:
            # The same quantity the simulator's trace scores: the margin
            # of the post-arrival, pre-action state.  A backlog the
            # policy let ride into the near-breach band (or a burst that
            # blew past C before the policy could act) surfaces here as
            # slo.* metrics and slo events -- the feedback signal the
            # policy governor consumes.  Purely observational: cost
            # functions are evaluated, nothing is charged.
            slo.observe_refresh(
                self.limit,
                self.predicted_refresh_cost(pre),
                t=t,
                source=f"ivm:{self.view.name}",
            )
        predicted = self.predicted_refresh_cost(action)
        counter = self.view.database.counter
        if not any(action):
            # Zero-work round: nothing to flush, so skip the cost window,
            # wall timer, attribution context, and span machinery -- at
            # fleet scale most rounds are idle and this path is what keeps
            # them cheap.  The ledger entry and per-view metric series are
            # still emitted (with zero values) so observability stays
            # gap-free.
            entry = RoundEntry(
                t=t,
                arrivals=arrivals,
                pre_state=pre,
                action=action,
                forced=forced,
                predicted_ms=predicted,
                sim_ms=0.0,
                wall_ms=0.0,
                backlog=sum(post),
                charges={},
            )
            self.ledger.record(entry)
            if recorder is not None:
                vid = self.ledger.metric_id
                recorder.counter(f"ivm.view.{vid}.rounds")
                recorder.counter(f"ivm.view.{vid}.flushes", 0)
                recorder.counter(f"ivm.view.{vid}.mods_applied", 0)
                recorder.counter(f"ivm.view.{vid}.cost_ms", 0.0)
                recorder.gauge(f"ivm.view.{vid}.backlog", entry.backlog)
                recorder.observe(f"ivm.view.{vid}.round_ms", 0.0)
                if not any(pre):
                    recorder.counter("ivm.skip.empty")
            self.policy.record_action(t, action, predicted)
            if "decision" in wanted:
                decisions.join(self.view.name, t, actual_ms=0.0)
            record = StepRecord(
                t=t,
                arrivals=arrivals,
                pre_state=pre,
                action=action,
                predicted_cost=predicted,
                actual_cost_ms=0.0,
            )
            self.log.steps.append(record)
            if self.verify:
                self._verify_consistency()
            return record
        charges_before = counter.snapshot()
        # Timing each flush is worth it only if someone consumes the
        # sample: a recorder, the calibration ring or a drift subscriber.
        calibrating = (
            recorder is not None or "calibration" in wanted or "drift" in wanted
        )
        flush_actual: dict[str, float] = {}
        wall_start = time.perf_counter()
        with counter.window() as window:
            # Any query profile captured while flushing carries the view
            # name and round, so EXPLAIN ANALYZE output and profile sinks
            # can attribute maintenance work to its owner.
            with attrib.maintenance_context(self.view.name, t):
                for alias, k, f in zip(
                    self.aliases, action, self.cost_functions
                ):
                    if not k:
                        continue
                    batch = None
                    if shared is not None:
                        batch = shared.batch_for(self.view, alias, k)
                        if batch.suppressed:
                            # The fingerprint proved every event in the
                            # window a no-op for this view: advance the
                            # delta without touching the join pipeline.
                            self.view.deltas[alias].advance(k)
                            if recorder is not None:
                                recorder.counter("ivm.skip.fingerprint")
                            continue
                    if recorder is None and not calibrating:
                        apply_batch(self.view, alias, k, batch=batch)
                        continue
                    # Per-alias flush: record batch size k against both the
                    # model's prediction f_i(k) and the engine-measured cost
                    # -- the exact quantity the paper's cost functions model.
                    with counter.window() as flush_window:
                        with obs.trace(
                            "ivm.flush", alias=alias, k=k, forced=forced
                        ) as span:
                            apply_batch(self.view, alias, k, batch=batch)
                        span.set(sim_ms=flush_window.elapsed_ms)
                    flush_actual[alias] = flush_window.elapsed_ms
                    if calibrating:
                        obs_calibration.observe_flush(
                            self.view.name, t, alias, k,
                            f(k), flush_window.elapsed_ms,
                        )
                    if recorder is not None:
                        recorder.counter("ivm.flushes")
                        recorder.observe("ivm.flush.batch_size", k)
                        recorder.observe("ivm.flush.predicted_ms", f(k))
                        recorder.observe(
                            "ivm.flush.actual_ms", flush_window.elapsed_ms
                        )
        wall_ms = (time.perf_counter() - wall_start) * 1e3
        charges_after = counter.snapshot()
        entry = RoundEntry(
            t=t,
            arrivals=arrivals,
            pre_state=pre,
            action=action,
            forced=forced,
            predicted_ms=predicted,
            sim_ms=window.elapsed_ms,
            wall_ms=wall_ms,
            backlog=sum(post),
            charges={
                f: charges_after[f] - charges_before[f]
                for f in charges_after
                if charges_after[f] != charges_before[f]
            },
        )
        self.ledger.record(entry)
        if recorder is not None:
            vid = self.ledger.metric_id
            recorder.counter(f"ivm.view.{vid}.rounds")
            recorder.counter(f"ivm.view.{vid}.flushes", entry.flushes)
            recorder.counter(f"ivm.view.{vid}.mods_applied", entry.mods_applied)
            recorder.counter(f"ivm.view.{vid}.cost_ms", window.elapsed_ms)
            recorder.gauge(f"ivm.view.{vid}.backlog", entry.backlog)
            recorder.observe(f"ivm.view.{vid}.round_ms", window.elapsed_ms)
        self.policy.record_action(t, action, predicted)
        if "decision" in wanted:
            decisions.join(
                self.view.name, t,
                actual_ms=window.elapsed_ms,
                table_ms=flush_actual,
                charges=dict(entry.charges),
            )
        record = StepRecord(
            t=t,
            arrivals=arrivals,
            pre_state=pre,
            action=action,
            predicted_cost=predicted,
            actual_cost_ms=window.elapsed_ms,
        )
        self.log.steps.append(record)
        if self.verify:
            self._verify_consistency()
        return record

    def _verify_consistency(self) -> None:
        expected = self.view.recompute()
        actual = self.view.contents()
        if expected != actual:
            raise AssertionError(
                f"view {self.view.name!r} diverged from recomputation: "
                f"expected {expected!r}, got {actual!r}"
            )

    def __repr__(self) -> str:
        return (
            f"ViewMaintainer({self.view.name!r}, policy={self.policy!r}, "
            f"C={self.limit})"
        )
