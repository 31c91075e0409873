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
    maintainer.refresh()            # forced view refresh

The maintainer enforces the response-time constraint with the *calibrated*
cost functions (the planner's world model), through the same
:meth:`~repro.core.problem.CostModel.check_action` the simulator asks.
Every round -- idle, flushed, suppressed or forced -- ends in one
:class:`~repro.ivm.ledger.RoundEntry` on the view's ledger, recording both
the predicted cost of the action and the engine-measured actual cost, so
their divergence is observable (Figure 5 plots it).

What a view-round needs that is not the view's own state -- Definition 1
and the prediction for its ``(model, pre, action, forced)``, its delta
windows, the entry of a round that did no work -- it looks up in the
round (:class:`~repro.ivm.sharedscan.SharedScanRound`) and works out
only when it is the first to ask.  Every flush reads its window
through the round, so there is one execution path.  Under a coordinator
the round is the fleet's, and its windows were read ahead; a maintainer
stepped alone makes its own, and finds it empty: each flush reads its
window there, inside the flush's cost window, and nothing is suppressed.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from repro import obs
from repro.obs import events
from repro.obs import calibration as obs_calibration
from repro.core.costfuncs import CostFunction
from repro.core.policies import Policy, PolicyError, declares_pure_decide
from repro.core.problem import CostModel, int_vector
from repro.ivm.ledger import NO_CHARGES, RoundEntry, ViewLedger
from repro.ivm.maintenance import apply_batch
from repro.ivm.sharedscan import SharedScanRound
from repro.ivm.view import MaterializedView

#: What a metered flush enters instead of an ``events.step`` tag that
#: nothing could read.
_UNTAGGED = nullcontext()


class ViewMaintainer:
    """Drives a live materialized view under a response-time constraint."""

    def __init__(
        self,
        view: MaterializedView,
        cost_functions: Sequence[CostFunction],
        limit: float,
        policy: Policy,
        scheduled_aliases: Sequence[str] | None = None,
    ):
        self.view = view
        # The scheduling state vector covers only the tables that receive
        # modifications (the paper's experiments schedule over PartSupp and
        # Supplier; Nation and Region are static).  Unscheduled tables must
        # stay modification-free, which execute_planned asserts.
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
        if len(set(self.aliases)) != len(self.aliases):
            # A repeat would count that table's backlog twice and flush
            # it twice in one round, the second time with nothing left.
            raise ValueError(
                f"scheduled aliases {self.aliases} name a table twice"
            )
        if len(cost_functions) != len(self.aliases):
            raise ValueError(
                f"need one cost function per scheduled alias "
                f"{self.aliases}, got {len(cost_functions)}"
            )
        #: The scheduled delta tables in state-vector order, and the rest
        #: (ingested every round, never counted) by alias.  Fixed here: a
        #: view's delta tables are never replaced.
        self._scheduled = tuple(view.deltas[a] for a in self.aliases)
        self._unscheduled = tuple(
            (alias, delta)
            for alias, delta in view.deltas.items()
            if alias not in self.aliases
        )
        #: Prices states and decides Definition 1 for this view; never
        #: the policy (also a ``CostModel``) whose actions it checks.
        #: Only ever read: a coordinator hands views with equal cost
        #: functions and limit the same one.
        self.model = CostModel(cost_functions, limit)
        self.limit = self.model.limit
        self.policy = policy
        policy.reset(self.model.cost_functions, self.limit)
        #: The run record, one entry per round; ``log`` is the same object
        #: under the name the benchmark harness reads it by.
        self.ledger = self.log = ViewLedger(view.name, self.aliases)
        self._clock = -1

    # ------------------------------------------------------------------

    def pre_state(self) -> tuple[int, ...]:
        """Current per-alias pending counts (after a pull)."""
        return tuple([delta.size for delta in self._scheduled])

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
        policy.reset(self.model.cost_functions, self.limit)
        return previous

    def predicted_refresh_cost(self, state: Sequence[int]) -> float:
        """``f(s)`` under the calibrated cost functions."""
        return self.model.refresh_cost(state)

    def step(self, t: int | None = None) -> RoundEntry:
        """Run one time step: ingest new modifications, consult the policy.

        Call after applying the step's base-table modifications.  Raises
        :class:`~repro.core.policies.PolicyError` when the policy's action
        leaves a full post-action state (constraint violation).
        """
        return self.execute_planned(*self.plan_step(t))

    def refresh(self, t: int | None = None) -> RoundEntry:
        """Force the view up to date (the paper's refresh request)."""
        return self.execute_planned(
            *self.plan_step(t, forced=True), forced=True
        )

    def plan_step(
        self,
        t: int | None = None,
        forced: bool = False,
        shared: SharedScanRound | None = None,
    ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The ingest-and-decide half of :meth:`step`, without executing.

        Returns ``(t, arrivals, pre_state, action)`` for
        :meth:`execute_planned`; a ``forced`` step flushes everything
        pending and does not ask the policy.  A policy's action with a
        fractional count raises :class:`~repro.core.policies.PolicyError`
        (it is never floored).  The multi-view coordinator plans every view
        first so one shared scan per table can cover all the planned
        windows, then executes.

        ``shared`` is the round being planned.  When its policy's class
        declares a pure ``decide``
        (:func:`~repro.core.policies.declares_pure_decide`) and the round
        memoizes actions, the view takes the action the round's first
        view of the same ``(model, policy class, pre)`` was given, and
        its policy is not asked; it is still handed ``observe`` here and
        ``record_action`` on execution.
        """
        self._clock = self._clock + 1 if t is None else t
        t = self._clock
        # Every base table is ingested; only the scheduled ones are counted.
        for _, delta in self._unscheduled:
            delta.pull()
        arrivals = tuple([delta.pull() for delta in self._scheduled])
        policy = self.policy
        policy.observe(t, arrivals)
        pre = self.pre_state()
        if forced:
            return t, arrivals, pre, pre
        # The round's action memo, when it keeps one and may use it here.
        actions = shared.actions if shared is not None else None
        if actions is not None and not declares_pure_decide(type(policy)):
            actions = None
        if actions is not None:
            case = (self.model, type(policy), pre)
            action = actions.get(case)
            if action is not None:
                return t, arrivals, pre, action
        # Decisions emitted by the policy are tagged with the owning view
        # and step, the key its flushes' calibration samples carry too.
        with events.step(self.view.name, t):
            action = policy.decide(t, pre)
        try:
            action = int_vector(action, "action", t)
        except ValueError as exc:
            raise PolicyError(f"{policy!r} at t={t}: {exc}") from None
        if actions is not None:
            actions[case] = action
        return t, arrivals, pre, action

    # ------------------------------------------------------------------

    def execute_planned(
        self,
        t: int,
        arrivals: tuple[int, ...],
        pre: tuple[int, ...],
        action: tuple[int, ...],
        forced: bool = False,
        shared: SharedScanRound | None = None,
    ) -> RoundEntry:
        """Execute one planned round (the second half of :meth:`step`).

        ``shared`` is the round this view-round belongs to; not given,
        the view-round is a round of one.  Each flush reads its window
        through it (:meth:`~repro.ivm.sharedscan.SharedScanRound.batch_for`,
        inside the flush's cost window): a coordinator's round hands over
        its pre-scanned batch, skips a window its fingerprint proved a
        no-op, and folds a delta query another view of the round already
        ran instead of running it again -- charged as if it had; a round
        of one reads the window there and then.

        Every round takes the same path: check, flush, one ledger entry
        and ``record_action``, then the flushes' calibration samples.
        The entry is the view-round's whole record: per-view series, skip
        counts and the round's SLO verdict
        (:func:`repro.ivm.governor.verdict`) are read from the ledger
        (:meth:`~repro.ivm.multiview.MaintenanceCoordinator.ledgers`), not
        copied into the recorder or the event log.  A
        :class:`~repro.core.policies.PolicyError` leaves no entry and
        nothing applied.
        """
        for alias, delta in self._unscheduled:
            if delta.size:
                raise PolicyError(
                    f"unscheduled base table {alias!r} received "
                    f"modifications; add it to scheduled_aliases"
                )
        if shared is None:
            shared = SharedScanRound(self.view.database)
        model = self.model
        case = (model, pre, action, forced)
        decided = shared.decided.get(case)
        if decided is None:
            try:
                post, _ = model.check_action(pre, action, forced)
            except ValueError as exc:
                raise PolicyError(f"{self.policy!r} at t={t}: {exc}") from None
            decided = shared.decided[case] = (
                sum(post), model.refresh_cost(action)
            )
        backlog, predicted = decided
        view = self.view
        # (alias, delta, k, f_i's prices, whether the round proved the
        # window a no-op).
        flushes = []
        work = False
        if any(action):
            # A round that fingerprinted nothing proves nothing a no-op.
            fingerprinted = bool(shared.fingerprints)
            for alias, delta, k, prices in zip(
                self.aliases, self._scheduled, action, model.cost_tables
            ):
                if k:
                    suppressed = fingerprinted and shared.proven_noop(
                        delta, k, view.referenced_columns(alias)
                    )
                    flushes.append((alias, delta, k, prices, suppressed))
                    work = work or not suppressed
        samples = ()
        if work:
            # Any query profile or decision emitted while flushing
            # carries the view name and round, so EXPLAIN ANALYZE output
            # and profile sinks can attribute maintenance work to its
            # owner.  Nobody else reads the tag.
            tag = (
                events.step(view.name, t)
                if shared.recorder is not None or shared.wanted
                else _UNTAGGED
            )
            with view.database.counter.window() as window, tag:
                samples = self._flush(flushes, shared, forced)
            entry = RoundEntry(
                t=t,
                arrivals=arrivals,
                pre_state=pre,
                action=action,
                forced=forced,
                predicted_ms=predicted,
                sim_ms=window.elapsed_ms,
                backlog=backlog,
                charges=window.charges,
            )
        else:
            # A zero-work round -- idle, or every window suppressed --
            # skips the metering: cost window, counter snapshots, step
            # tag, spans, calibration samples.  At fleet scale most rounds
            # are such, and nothing in their entry is the view's own.
            if flushes:
                self._flush(flushes, shared, forced)
            key = (t, arrivals, pre, action, forced, predicted, backlog)
            entry = shared.zero_work.get(key)
            if entry is None:
                entry = shared.zero_work[key] = RoundEntry(
                    t, arrivals, pre, action, forced, predicted,
                    sim_ms=0.0, backlog=backlog,
                    charges=NO_CHARGES,
                )
        self.ledger.record(entry)
        self.policy.record_action(t, action, predicted)
        # Told only once the view-round is booked: a subscriber that
        # raises cannot leave applied work off the ledger or ``F_t``.
        for sample in samples:
            obs_calibration.observe_flush(view.name, t, *sample)
        return entry

    def _flush(
        self, flushes, shared: SharedScanRound, forced: bool
    ) -> list[tuple]:
        """Apply the round's per-alias flushes in order, each reading its
        window through ``shared`` inside its own cost window.

        Returns the calibration samples to emit, ``(alias, k, f_i(k),
        actual ms)`` per metered flush; none when nobody consumes them.
        """
        view = self.view
        samples = []
        # Timing each flush is worth it only if someone consumes the
        # sample: a recorder or the calibration ring.
        calibrating = (
            shared.recorder is not None or "calibration" in shared.wanted
        )
        for alias, delta, k, prices, suppressed in flushes:
            if suppressed:
                # The fingerprint proved every event in the window a
                # no-op for this view: advance the delta without
                # touching the join pipeline.
                delta.advance(k)
                continue
            if not calibrating:
                apply_batch(view, alias, k, shared)
                continue
            # Per-alias flush: record batch size k against both the
            # model's prediction f_i(k) and the engine-measured cost
            # -- the exact quantity the paper's cost functions model.
            counter = view.database.counter
            with counter.window() as flush_window:
                with obs.trace(
                    "ivm.flush", alias=alias, k=k, forced=forced
                ) as span:
                    apply_batch(view, alias, k, shared)
                span.set(sim_ms=flush_window.elapsed_ms)
            samples.append((alias, k, prices[k], flush_window.elapsed_ms))
        return samples

    def __repr__(self) -> str:
        return (
            f"ViewMaintainer({self.view.name!r}, policy={self.policy!r}, "
            f"C={self.limit})"
        )
