"""The pub/sub broker: subscriptions, scheduling, notifications.

Drives the paper's motivating workflow.  The broker is a client of one
:class:`~repro.ivm.multiview.MaintenanceCoordinator`: each registered
subscription is a coordinated view (``sub_<name>``) running the
subscription's scheduling policy under its guarantee.  On every broker
tick:

1. every subscription's notification condition is evaluated against the
   clock and the always-current base tables;
2. one coordinator round runs: the triggered subscriptions' views are
   **refreshed** -- all pending modifications are processed -- and every
   other view ingests the step's modifications and lets its policy batch
   or process them (keeping the backlog refreshable within the
   subscription's guarantee ``C``).  The round reads each base table's
   delta window once for all of them and truncates the mod logs behind
   them;
3. each triggered subscription emits a :class:`Notification` with the old
   and new results and the measured refresh cost.  The cost is checked
   against the guarantee: under a correct policy the refresh cost never
   exceeds ``C``, which is exactly the response-time constraint of
   Section 2.  The refresh is observed once, by its view's round
   (``slo`` source ``ivm:sub_<name>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.database import Database
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView
from repro.pubsub.subscription import Subscription


@dataclass(frozen=True)
class Notification:
    """One delivered notification."""

    subscription: str
    t: int
    old_result: Any
    new_result: Any
    #: The refresh round's engine-measured cost on the view's ledger.
    #: It excludes the delta read, which the coordinator's shared scan
    #: books once for the round.
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
    last_result: Any
    notifications: list[Notification] = field(default_factory=list)


class PubSubBroker:
    """Hosts subscriptions over one shared database."""

    def __init__(self, database: Database):
        self.database = database
        self._coordinator = MaintenanceCoordinator(database)
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
        view = self._coordinator.add_view(
            ViewConfig(
                name=f"sub_{subscription.name}",
                query=subscription.query,
                policy=subscription.policy,
                cost_functions=subscription.cost_functions,
                limit=subscription.limit,
                scheduled_aliases=subscription.scheduled_aliases,
            )
        )
        self._registrations[subscription.name] = _Registration(
            subscription=subscription,
            view=view,
            last_result=self._result_of(view),
        )

    def unsubscribe(self, name: str) -> None:
        """Drop a subscription: its view is discarded and the history only
        it still pinned may be truncated."""
        self._coordinator.remove_view(self._registration(name).view.name)
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
        triggered = [
            registration
            for registration in self._registrations.values()
            if registration.subscription.condition.should_notify(
                t, self.database
            )
        ]
        entries = self._coordinator.step(
            t, refresh=[registration.view.name for registration in triggered]
        )
        fired: list[Notification] = []
        for registration in triggered:
            subscription = registration.subscription
            entry = entries[registration.view.name]
            new_result = self._result_of(registration.view)
            notification = Notification(
                subscription=subscription.name,
                t=t,
                old_result=registration.last_result,
                new_result=new_result,
                refresh_cost_ms=entry.sim_ms,
                within_guarantee=(
                    entry.predicted_ms
                    <= self._maintainer(registration).model.full_above
                ),
            )
            registration.last_result = new_result
            registration.notifications.append(notification)
            subscription.condition.notified(t, new_result)
            fired.append(notification)
        return fired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result(self, name: str) -> Any:
        """The possibly stale materialized result of a subscription's
        content query."""
        return self._result_of(self._registration(name).view)

    def notifications(self, name: str) -> list[Notification]:
        """All notifications delivered for one subscription."""
        return list(self._registration(name).notifications)

    def maintenance_cost_ms(self, name: str) -> float:
        """Total engine-measured maintenance cost spent on a subscription."""
        return self._maintainer(self._registration(name)).ledger.total_sim_ms

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

    def _maintainer(self, registration: _Registration):
        return self._coordinator.maintainer(registration.view.name)

    @staticmethod
    def _result_of(view: MaterializedView) -> Any:
        if view.is_aggregate and not view.spec.aggregate.group_by:
            return view.scalar()
        return view.contents()

    def __repr__(self) -> str:
        return f"PubSubBroker(subscriptions={list(self._registrations)})"
