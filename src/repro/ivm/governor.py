"""The policy governor: one feedback loop from telemetry to a runtime knob.

:class:`PolicyGovernor` subscribes to the ``slo`` kind of the event log
(:mod:`repro.obs.events`) and actuates
:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`::

    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(...)
    with PolicyGovernor(coordinator) as governor:   # subscribes
        for t, arrivals in enumerate(stream):
            apply(arrivals)
            coordinator.step(t)
            governor.tick(t)             # read signals, maybe actuate

Design rules:

* **buffer in callbacks, act in ticks** -- event callbacks run inline on
  the maintenance path, so they only append to bounded buffers; every
  actuation happens in :meth:`PolicyGovernor.tick`, which the caller
  runs *between* rounds.  A policy never changes under an executing
  round.
* **hysteretic** -- the policy moves only after a configurable amount of
  evidence, with a cooldown before relaxing back, so one noisy interval
  cannot make the loop thrash.
* **the live policy is the mode** -- each tick reads a view's mode from
  the policy its maintainer runs now, so a ``set_policy`` from outside
  or a view re-registered under the same name is seen as it is; a view
  the coordinator no longer has is forgotten.
* **auditable** -- every actuation is a :class:`ControlEvent` emitted as
  an ``actuation`` event (``--control-log``, ``repro control-log``)
  and counted in ``control.actuations``.  Recording one never touches
  the operation counter; the actuation itself changes the schedule by
  design, never what a given query charges.
* **subscribing is observational** -- a governor that never actuates
  leaves a run byte-identical to one without it (guarded by
  ``tests/integration/test_control_equivalence.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.ivm.multiview import MaintenanceCoordinator
from repro.obs import events

__all__ = ["ControlEvent", "PolicyGovernor"]

#: Policy-mode names, in escalation order (most defensive first).
NAIVE, ONLINE = "naive", "online"


@dataclass
class ControlEvent:
    """One policy switch of one view.

    ``old``/``new`` are the view's policy modes before and after.
    ``signals`` holds the raw numeric evidence the governor acted on,
    keyed by signal name.
    """

    t: int | None
    old: object
    new: object
    reason: str
    signals: dict[str, float] = field(default_factory=dict)
    view: str | None = None

    def lines(self) -> list[str]:
        """The event as a text tree (``repro control-log``)."""
        where = f" view={self.view}" if self.view else ""
        items = [f"reason: {self.reason}"]
        if self.signals:
            rendered = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(self.signals.items())
            )
            items.append(f"signals: {rendered}")
        return events.tree(
            f"t={self.t}{where}: policy {self.old!r} -> {self.new!r}", items
        )

    def to_dict(self) -> dict:
        data: dict = {
            "t": self.t,
            "old": self.old,
            "new": self.new,
            "reason": self.reason,
            "signals": dict(self.signals),
        }
        if self.view is not None:
            data["view"] = self.view
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ControlEvent":
        """Requires ``old`` and ``new``; ignores keys it does not know."""
        return cls(
            t=data.get("t"),
            old=data["old"],
            new=data["new"],
            reason=data.get("reason", ""),
            signals={
                k: float(v) for k, v in data.get("signals", {}).items()
            },
            view=data.get("view"),
        )


def emit(event: ControlEvent) -> ControlEvent:
    """Hand ``event`` to the event log and count it in ``control.actuations``."""
    events.emit("actuation", event)
    recorder = obs.get_recorder()
    if recorder is not None:
        recorder.counter("control.actuations")
    return event


#: SLO pressure counts over the trailing this many steps.
WINDOW = 10
#: This many consecutive quiet steps relax a view back to ONLINE.
COOLDOWN = 20

#: Mode -> a fresh policy instance per switch (estimator state must not leak).
_POLICY_FOR = {NAIVE: NaivePolicy, ONLINE: OnlinePolicy}


def _mode_of(policy) -> str:
    """Best-effort mode name of the policy a maintainer runs."""
    name = type(policy).__name__.lower()
    for mode in (NAIVE, ONLINE):
        if mode in name:
            return mode
    return name or "custom"


class PolicyGovernor:
    """Switch per-view scheduling policy from SLO pressure.

    * ``escalate_after`` breach/near-breach events for one view within
      the trailing :data:`WINDOW` steps -> **NAIVE** (flush-everything keeps
      the post-action backlog at zero, buying maximum headroom for the
      next burst at the price of batching economy);
    * :data:`COOLDOWN` consecutive quiet steps -> relax back to ONLINE.

    A context manager: entering subscribes to ``slo`` events, leaving
    unsubscribes.
    """

    def __init__(
        self,
        coordinator: MaintenanceCoordinator,
        escalate_after: int = 3,
    ):
        if escalate_after < 1:
            raise ValueError(f"escalate_after must be >= 1, got {escalate_after}")
        self.coordinator = coordinator
        self.escalate_after = escalate_after
        self._lock = threading.Lock()
        #: view -> recent breach/near-breach step numbers (bounded).
        self._pressure: dict[str, deque[int]] = {}
        #: view -> last step with any pressure event.
        self._last_event: dict[str, int] = {}

    # -- subscriptions --------------------------------------------------

    def __enter__(self) -> "PolicyGovernor":
        events.installed().subscribe("slo", self._on_slo)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        events.installed().unsubscribe("slo", self._on_slo)

    def _on_slo(self, event) -> None:
        view = event.view
        if view is None:
            return  # not a live maintainer's observation
        t = event.t if event.t is not None else 0
        with self._lock:
            bucket = self._pressure.setdefault(
                view, deque(maxlen=max(self.escalate_after * 4, 16))
            )
            bucket.append(t)
            self._last_event[view] = max(self._last_event.get(view, t), t)

    # -- actuation ------------------------------------------------------

    def _switch(self, view, maintainer, old, mode, t, reason, signals) -> None:
        maintainer.set_policy(_POLICY_FOR[mode]())
        emit(ControlEvent(t, old, mode, reason, signals, view))

    def tick(self, t: int) -> None:
        """One control interval: read the buffered signals and actuate.
        Call between maintenance rounds."""
        with self._lock:
            pressure = {v: list(q) for v, q in self._pressure.items()}
            last_event = dict(self._last_event)
        for view in sorted(pressure):
            try:
                maintainer = self.coordinator.maintainer(view)
            except KeyError:
                with self._lock:  # view removed: forget its buffers
                    self._pressure.pop(view, None)
                    self._last_event.pop(view, None)
                continue
            mode = _mode_of(maintainer.policy)
            recent = [s for s in pressure[view] if s > t - WINDOW]
            if mode != NAIVE and len(recent) >= self.escalate_after:
                self._switch(
                    view, maintainer, mode, NAIVE, t,
                    reason=(
                        f"slo pressure: {len(recent)} breach/near-breach "
                        f"step(s) in the last {WINDOW} steps "
                        f"(threshold {self.escalate_after})"
                    ),
                    signals={
                        "pressure_events": float(len(recent)),
                        "window_steps": float(WINDOW),
                    },
                )
                continue
            quiet_for = t - last_event[view]
            if mode != ONLINE and quiet_for >= COOLDOWN:
                self._switch(
                    view, maintainer, mode, ONLINE, t,
                    reason=(
                        f"quiet for {quiet_for} steps "
                        f"(cooldown {COOLDOWN}); relaxing back to "
                        f"the preferred mode"
                    ),
                    signals={"quiet_steps": float(quiet_for)},
                )
