"""Notification conditions ("when I want it").

Conditions are evaluated *without* refreshing the subscription's view:
they may read the clock and the (always-current) base tables, but not the
possibly stale view contents.  This mirrors the paper's examples:

* "tell me the value of my investment portfolio **every hour**" --
  :class:`EveryNSteps`;
* "report total gasoline sales **if the oil price has changed by more than
  10% since the last report**" -- :class:`ValueWatch` probing a base-table
  value and comparing it against its value at the previous notification.

Conditions are stateful (they remember the last notification); the broker
calls :meth:`NotificationCondition.notified` whenever it fires a
notification for the owning subscription.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.engine.database import Database


class NotificationCondition(ABC):
    """Decides, each time step, whether a subscription must be refreshed."""

    @abstractmethod
    def should_notify(self, t: int, database: Database) -> bool:
        """Whether the condition triggers at time ``t``."""

    def notified(self, t: int, result: Any) -> None:
        """Hook: the broker fired a notification at ``t`` with ``result``.

        Stateful conditions (e.g. :class:`ValueWatch`) override this to
        re-baseline.  Default: no state.
        """


class EveryNSteps(NotificationCondition):
    """Trigger periodically: at ``phase``, ``phase + n``, ``phase + 2n``...

    The paper's "every hour" subscription with a discrete clock.
    """

    def __init__(self, n: int, phase: int = 0):
        if n < 1:
            raise ValueError(f"period must be >= 1, got {n}")
        self.n = n
        self.phase = phase % n

    def should_notify(self, t: int, database: Database) -> bool:
        return t % self.n == self.phase

    def __repr__(self) -> str:
        return f"EveryNSteps({self.n}, phase={self.phase})"


class ValueWatch(NotificationCondition):
    """Trigger when a probed value drifts from its last-notified baseline.

    ``probe(database)`` reads any scalar from the *base* tables (always
    current, so no refresh is needed to evaluate the condition).  The
    condition triggers when the probed value differs from the baseline by
    more than the fraction ``relative`` of it; the baseline resets
    whenever the subscription notifies.
    """

    def __init__(self, probe: Callable[[Database], float], relative: float):
        if relative <= 0:
            raise ValueError(f"relative threshold must be > 0, got {relative}")
        self.probe = probe
        self.relative = relative
        self._baseline: float | None = None

    def should_notify(self, t: int, database: Database) -> bool:
        current = float(self.probe(database))
        if self._baseline is None:
            self._baseline = current
            return False
        drift = abs(current - self._baseline)
        scale = abs(self._baseline)
        if scale == 0:
            return drift > 0
        return drift / scale > self.relative

    def notified(self, t: int, result: Any) -> None:
        # Re-baseline at the probed value as of the notification.
        self._baseline = None  # next should_notify() re-reads it

    def __repr__(self) -> str:
        return (
            f"ValueWatch(relative={self.relative})"
        )

