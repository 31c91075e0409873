"""The policy governor: one feedback loop from the ledger to a runtime knob.

:class:`PolicyGovernor` reads the SLO verdict of every view-round from
its ledger entry and actuates
:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`::

    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(...)
    governor = PolicyGovernor(coordinator)
    for t, arrivals in enumerate(stream):
        apply(arrivals)
        coordinator.step(t)
        governor.tick(t)                 # read new entries, maybe actuate

Design rules:

* **the ledger is the signal** -- a view-round's verdict is
  :func:`repro.obs.slo.classify` of the constraint ``C`` and the refresh
  cost ``f(pre_state)`` of its :class:`~repro.ivm.ledger.RoundEntry`, the
  quantity the simulator's trace scores.  Each tick reads the entries
  each view booked since the last one, so the loop acts the same with
  telemetry on or off, and a round that booked no entry is no evidence.
* **act in ticks** -- every actuation happens in
  :meth:`PolicyGovernor.tick`, which the caller runs *between* rounds.
  A policy never changes under an executing round.
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
* **reading is observational** -- a governor that never actuates leaves
  a run byte-identical to one without it (guarded by
  ``tests/integration/test_control_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import CostModel
from repro.ivm.ledger import RoundEntry, ViewLedger
from repro.ivm.multiview import MaintenanceCoordinator
from repro.obs import events, slo

__all__ = ["ControlEvent", "PolicyGovernor", "verdict"]

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


def verdict(model: CostModel, entry: RoundEntry) -> str | None:
    """A view-round's SLO verdict: ``BREACH``, ``NEAR_BREACH`` or ``None``
    for the refresh cost ``f(pre_state)`` of its entry against ``C``."""
    return slo.classify(model.limit, model.refresh_cost(entry.pre_state))


def _mode_of(policy) -> str:
    """Best-effort mode name of the policy a maintainer runs."""
    name = type(policy).__name__.lower()
    for mode in (NAIVE, ONLINE):
        if mode in name:
            return mode
    return name or "custom"


class PolicyGovernor:
    """Switch per-view scheduling policy from SLO pressure.

    * ``escalate_after`` breach/near-breach view-rounds of one view within
      the trailing :data:`WINDOW` steps -> **NAIVE** (flush-everything
      keeps the post-action backlog at zero, buying maximum headroom for
      the next burst at the price of batching economy);
    * :data:`COOLDOWN` consecutive quiet steps -> relax back to ONLINE.
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
        #: view -> (the ledger read, how many of its entries were read).
        self._read: dict[str, tuple[ViewLedger, int]] = {}
        #: view -> recent breach/near-breach step numbers (bounded).
        self._pressure: dict[str, deque[int]] = {}

    def _switch(self, view, maintainer, old, mode, t, reason, signals) -> None:
        maintainer.set_policy(_POLICY_FOR[mode]())
        emit(ControlEvent(t, old, mode, reason, signals, view))

    def _read_entries(self, view: str, maintainer) -> None:
        """Fold the entries ``view`` booked since the last tick into its
        pressure.  A view re-registered under the same name has a new
        ledger, read from its start."""
        ledger = maintainer.ledger
        read, seen = self._read.get(view, (ledger, 0))
        if read is not ledger:
            seen = 0
        entries = ledger.entries
        for entry in entries[seen:]:
            if verdict(maintainer.model, entry) is not None:
                self._pressure.setdefault(
                    view, deque(maxlen=max(self.escalate_after * 4, 16))
                ).append(entry.t)
        self._read[view] = (ledger, len(entries))

    def tick(self, t: int) -> None:
        """One control interval: read the new ledger entries and actuate.
        Call between maintenance rounds."""
        maintainers = dict(self.coordinator.iter_maintainers())
        for view in [v for v in self._read if v not in maintainers]:
            del self._read[view]  # view removed: forget it
            self._pressure.pop(view, None)
        for view, maintainer in maintainers.items():
            self._read_entries(view, maintainer)
        for view in sorted(self._pressure):
            pressure = self._pressure[view]
            maintainer = maintainers[view]
            mode = _mode_of(maintainer.policy)
            recent = [s for s in pressure if s > t - WINDOW]
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
            quiet_for = t - max(pressure)
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
