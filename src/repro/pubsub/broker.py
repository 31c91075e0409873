"""The pub/sub broker: subscriptions, scheduling, notifications.

Drives the paper's motivating workflow.  Each registered subscription gets
its own materialized view and :class:`~repro.ivm.maintainer.ViewMaintainer`
running the subscription's scheduling policy.  On every broker tick:

1. each subscription's maintainer ingests the step's base-table
   modifications and lets its policy batch or process them (keeping the
   backlog refreshable within the subscription's guarantee ``C``);
2. the notification condition is evaluated against the clock and the
   always-current base tables;
3. if it triggers, the view is **refreshed** -- all pending modifications
   are processed -- and a :class:`Notification` is emitted with the old
   and new results and the measured refresh latency.  The latency is
   checked against the guarantee: under a correct policy the refresh cost
   never exceeds ``C``, which is exactly the response-time constraint of
   Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.engine.database import Database
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.view import MaterializedView
from repro.obs import events, slo
from repro.pubsub.subscription import Subscription


@dataclass(frozen=True)
class Notification:
    """One delivered notification."""

    subscription: str
    t: int
    old_result: Any
    new_result: Any
    refresh_cost_ms: float
    within_guarantee: bool

    @property
    def changed(self) -> bool:
        """Whether the content actually differs from the last notification."""
        return self.old_result != self.new_result


@dataclass
class _Registration:
    subscription: Subscription
    view: MaterializedView
    maintainer: ViewMaintainer
    last_result: Any
    notifications: list[Notification] = field(default_factory=list)


class PubSubBroker:
    """Hosts subscriptions over one shared database."""

    def __init__(self, database: Database):
        self.database = database
        self._registrations: dict[str, _Registration] = {}
        self._clock = -1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def subscribe(self, subscription: Subscription) -> None:
        """Register a subscription; materializes its content query now."""
        if subscription.name in self._registrations:
            raise ValueError(
                f"subscription {subscription.name!r} already registered"
            )
        view = MaterializedView(
            f"sub_{subscription.name}", self.database, subscription.query
        )
        maintainer = ViewMaintainer(
            view,
            subscription.cost_functions,
            limit=subscription.limit,
            policy=subscription.policy,
            scheduled_aliases=subscription.scheduled_aliases,
        )
        self._registrations[subscription.name] = _Registration(
            subscription=subscription,
            view=view,
            maintainer=maintainer,
            last_result=self._result_of(view),
        )

    def unsubscribe(self, name: str) -> None:
        """Drop a subscription (its view is discarded)."""
        if name not in self._registrations:
            raise KeyError(f"no subscription {name!r}")
        del self._registrations[name]

    @property
    def subscriptions(self) -> tuple[str, ...]:
        """Names of the registered subscriptions."""
        return tuple(self._registrations)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def tick(self, t: int | None = None) -> list[Notification]:
        """Advance one time step; returns the notifications fired at it.

        Call after applying the step's base-table modifications.
        """
        self._clock = self._clock + 1 if t is None else t
        t = self._clock
        fired: list[Notification] = []
        for registration in self._registrations.values():
            subscription = registration.subscription
            triggered = subscription.condition.should_notify(
                t, self.database
            )
            if triggered:
                # Refresh: process *all* pending modifications, measure it.
                entry = registration.maintainer.refresh(t)
                # The refresh is the guarantee's moment of truth: record
                # the deadline margin and emit any breach as an slo event
                # (subscribers hear it even without a recorder installed).
                if obs.get_recorder() is not None or events.wanted("slo"):
                    slo.observe_refresh(
                        subscription.limit,
                        entry.predicted_ms,
                        t=t,
                        source=f"pubsub:{subscription.name}",
                    )
                new_result = self._result_of(registration.view)
                notification = Notification(
                    subscription=subscription.name,
                    t=t,
                    old_result=registration.last_result,
                    new_result=new_result,
                    refresh_cost_ms=entry.sim_ms,
                    within_guarantee=(
                        entry.predicted_ms
                        <= registration.maintainer.model.full_above
                    ),
                )
                registration.last_result = new_result
                registration.notifications.append(notification)
                subscription.condition.notified(t, new_result)
                fired.append(notification)
            else:
                # Between notifications: let the policy batch/process.
                registration.maintainer.step(t)
        return fired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result(self, name: str, refresh: bool = False) -> Any:
        """Current result of a subscription's content query.

        With ``refresh=False`` (default) this is the possibly stale
        materialized result; ``refresh=True`` forces the view up to date
        first (an on-demand pull, also bounded by the guarantee).
        """
        registration = self._registration(name)
        if refresh:
            registration.maintainer.refresh()
            registration.last_result = self._result_of(registration.view)
        return self._result_of(registration.view)

    def notifications(self, name: str) -> list[Notification]:
        """All notifications delivered for one subscription."""
        return list(self._registration(name).notifications)

    def maintenance_cost_ms(self, name: str) -> float:
        """Total engine-measured maintenance cost spent on a subscription."""
        return self._registration(name).maintainer.ledger.total_sim_ms

    def guarantee_violations(self, name: str) -> int:
        """Notifications whose refresh exceeded the QoS guarantee."""
        return sum(
            1
            for n in self._registration(name).notifications
            if not n.within_guarantee
        )

    # ------------------------------------------------------------------

    def _registration(self, name: str) -> _Registration:
        try:
            return self._registrations[name]
        except KeyError:
            raise KeyError(f"no subscription {name!r}") from None

    @staticmethod
    def _result_of(view: MaterializedView) -> Any:
        if view.is_aggregate and not view.spec.aggregate.group_by:
            return view.scalar()
        return view.contents()

    def __repr__(self) -> str:
        return f"PubSubBroker(subscriptions={list(self._registrations)})"
