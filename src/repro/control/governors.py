"""The policy governor: one feedback loop from telemetry to a runtime knob.

A governor closes a loop between an existing telemetry stream and an
existing runtime knob.  :class:`PolicyGovernor` consumes the ``slo.*``
alert hub and the calibration drift hub and actuates
``ViewMaintainer.set_policy``.

Design rules:

* **buffer in callbacks, act in ticks** -- alert-hub callbacks fire
  inline from the maintenance path, so they only append to bounded
  buffers; every actuation happens in :meth:`Governor.tick`, which the
  :class:`~repro.control.controller.Controller` calls *between* rounds.
  Settings therefore never change under an executing round.
* **hysteretic** -- a knob moves only after a configurable amount of
  evidence, with a cooldown before relaxing back, so one noisy interval
  cannot make the loop thrash.
* **auditable** -- every actuation emits a
  :class:`~repro.control.events.ControlEvent` plus fixed
  ``control.<knob>.*`` metrics.
* **disabled == invisible** -- a governor with ``enabled=False`` never
  attaches callbacks, never reads signals, never actuates; runs with
  all governors disabled are byte-identical to runs without the control
  layer (guarded by ``tests/integration/test_control_equivalence.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.control import events as control_events
from repro.control.events import ControlEvent
from repro.obs import calibration as obs_calibration
from repro.obs import slo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.ivm.multiview import MaintenanceCoordinator

#: Policy-mode names, in escalation order (most defensive first).
NAIVE, ONLINE, RECEDING = "naive", "online", "receding"


def _default_policy_factory(mode: str):
    """Fresh policy instances per switch (estimator state must not leak)."""
    from repro.core.naive import NaivePolicy
    from repro.core.online import OnlinePolicy
    from repro.core.receding import RecedingHorizonPolicy

    if mode == NAIVE:
        return NaivePolicy()
    if mode == ONLINE:
        return OnlinePolicy()
    if mode == RECEDING:
        return RecedingHorizonPolicy(window=60)
    raise ValueError(f"unknown policy mode {mode!r}")


def _mode_of(policy) -> str:
    """Best-effort mode name for the policy a maintainer starts with."""
    name = type(policy).__name__.lower()
    for mode in (NAIVE, RECEDING, ONLINE):
        if mode in name:
            return mode
    return name or "custom"


class Governor:
    """Base shape: attach/detach around a run, tick between rounds."""

    name = "governor"

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def attach(self) -> None:  # pragma: no cover - overridden
        pass

    def detach(self) -> None:  # pragma: no cover - overridden
        pass

    def tick(self, t: int) -> None:  # pragma: no cover - overridden
        pass

    # ------------------------------------------------------------------

    def _emit(
        self,
        t: int,
        setting: str,
        old,
        new,
        reason: str,
        signals: dict[str, float],
        view: str | None = None,
        applied: bool = True,
    ) -> ControlEvent:
        return control_events.emit(
            ControlEvent(
                t=t,
                governor=self.name,
                setting=setting,
                old=old,
                new=new,
                reason=reason,
                signals=signals,
                view=view,
                applied=applied,
            )
        )


class PolicyGovernor(Governor):
    """Switch per-view scheduling policy from SLO pressure and drift.

    Escalation ladder (most defensive wins):

    * ``escalate_after`` breach/near-breach events for one view within
      the trailing ``window`` steps -> **NAIVE** (flush-everything keeps
      the post-action backlog at zero, buying maximum headroom for the
      next burst at the price of batching economy);
    * a calibration-drift alert for a view still on ONLINE ->
      **RECEDING** (when the long-horizon cost model is drifting, a
      short re-planned window beats trusting ONLINE's closed-form
      amortized score);
    * ``cooldown`` consecutive quiet steps -> relax back to the
      preferred mode (ONLINE by default).
    """

    name = "policy"

    def __init__(
        self,
        coordinator: "MaintenanceCoordinator",
        enabled: bool = True,
        preferred: str = ONLINE,
        escalate_after: int = 3,
        window: int = 10,
        cooldown: int = 20,
        policy_factory: Callable[[str], object] | None = None,
    ):
        super().__init__(enabled)
        if escalate_after < 1:
            raise ValueError(f"escalate_after must be >= 1, got {escalate_after}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.coordinator = coordinator
        self.preferred = preferred
        self.escalate_after = escalate_after
        self.window = window
        self.cooldown = cooldown
        self.policy_factory = policy_factory or _default_policy_factory
        self._lock = threading.Lock()
        #: view -> recent breach/near-breach step numbers (bounded).
        self._pressure: dict[str, deque[int]] = {}
        #: views with an unconsumed drift alert.
        self._drifted: dict[str, int] = {}
        #: view -> current mode (lazily seeded from the live policy).
        self._modes: dict[str, str] = {}
        #: view -> last step with any pressure event.
        self._last_event: dict[str, int] = {}

    # -- subscriptions --------------------------------------------------

    def attach(self) -> None:
        if not self.enabled:
            return
        slo.on_alert(self._on_slo)
        obs_calibration.on_drift(self._on_drift)

    def detach(self) -> None:
        slo.remove_alert(self._on_slo)
        obs_calibration.remove_drift(self._on_drift)

    def _on_slo(self, event) -> None:
        source = getattr(event, "source", "")
        if not source.startswith("ivm:"):
            return
        view = source[len("ivm:") :]
        t = event.t if event.t is not None else 0
        with self._lock:
            bucket = self._pressure.setdefault(
                view, deque(maxlen=max(self.escalate_after * 4, 16))
            )
            bucket.append(t)
            self._last_event[view] = max(self._last_event.get(view, t), t)

    def _on_drift(self, event) -> None:
        view = getattr(event, "view", None)
        if view is None:
            return
        with self._lock:
            self._drifted[view] = event.t
            self._last_event[view] = max(
                self._last_event.get(view, event.t), event.t
            )

    # -- actuation ------------------------------------------------------

    def _switch(
        self,
        view: str,
        mode: str,
        t: int,
        reason: str,
        signals: dict[str, float],
    ) -> None:
        try:
            maintainer = self.coordinator.maintainer(view)
        except KeyError:
            return  # view removed since the alert fired
        old = self._modes.get(view) or _mode_of(maintainer.policy)
        maintainer.set_policy(self.policy_factory(mode))
        self._modes[view] = mode
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("control.policy.switches")
        self._emit(
            t, "policy", old, mode, reason, signals, view=view
        )

    def tick(self, t: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            pressure = {v: list(q) for v, q in self._pressure.items()}
            drifted = dict(self._drifted)
            self._drifted.clear()
            last_event = dict(self._last_event)
        views = set(pressure) | set(drifted) | set(self._modes)
        for view in sorted(views):
            try:
                maintainer = self.coordinator.maintainer(view)
            except KeyError:
                continue
            mode = self._modes.get(view) or _mode_of(maintainer.policy)
            self._modes.setdefault(view, mode)
            recent = [s for s in pressure.get(view, ()) if s > t - self.window]
            if mode != NAIVE and len(recent) >= self.escalate_after:
                self._switch(
                    view,
                    NAIVE,
                    t,
                    reason=(
                        f"slo pressure: {len(recent)} breach/near-breach "
                        f"step(s) in the last {self.window} steps "
                        f"(threshold {self.escalate_after})"
                    ),
                    signals={
                        "pressure_events": float(len(recent)),
                        "window_steps": float(self.window),
                    },
                )
                continue
            if view in drifted and mode == ONLINE:
                self._switch(
                    view,
                    RECEDING,
                    t,
                    reason=(
                        "calibration drift: the cost model's rolling "
                        "relative error crossed its threshold; "
                        "re-planning over a short window instead of "
                        "trusting the long-horizon estimate"
                    ),
                    signals={"drift_t": float(drifted[view])},
                )
                continue
            quiet_for = t - last_event.get(view, -(10**9))
            if mode != self.preferred and quiet_for >= self.cooldown:
                self._switch(
                    view,
                    self.preferred,
                    t,
                    reason=(
                        f"quiet for {quiet_for} steps "
                        f"(cooldown {self.cooldown}); relaxing back to "
                        f"the preferred mode"
                    ),
                    signals={"quiet_steps": float(quiet_for)},
                )
