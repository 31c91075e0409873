"""Structured control-plane events: every actuation leaves a record.

The adaptive runtime (:mod:`repro.control`) changes a live setting --
the scheduling policy -- from observed telemetry.  A closed loop that
cannot explain itself is worse than no loop: when a run misbehaves, the
first question is "what did the controller do, when, and on what
evidence?".  This module answers it with the same shape the planner's
decision log uses (:mod:`repro.obs.decisions`):

* every (attempted) actuation is a :class:`ControlEvent` carrying the
  governor, the setting's old and new values, a human-readable reason,
  and the raw signal values that triggered it;
* events land in a bounded, thread-safe :class:`ControlLog` ring
  (process-global via :func:`set_control_log`, the ``--control-log``
  CLI flag's sink) and feed ``control.*`` metrics through the ambient
  recorder;
* :func:`render_control_log` renders the trail as the text tree behind
  ``repro control-log``, and the ``/control`` HTTP route serves it as
  JSON.

Strictly observational: recording an event never touches the operation
counter.  The *actuations themselves* change the schedule by design
(a policy switch is the point), never what a given query charges.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "ControlEvent",
    "ControlLog",
    "collecting",
    "emit",
    "get_control_log",
    "render_control_log",
    "set_control_log",
]

#: Default ring capacity of a :class:`ControlLog`; old events are
#: evicted (and counted in :attr:`ControlLog.dropped`) beyond this.
DEFAULT_CAPACITY = 4096


@dataclass
class ControlEvent:
    """One control-loop actuation (or explicitly suppressed actuation).

    ``old``/``new`` are the setting's values before and after (policy
    mode names).
    ``signals`` holds the raw numeric evidence the governor acted on,
    keyed by signal name.  ``applied`` is ``False`` for events a
    governor recorded without actually changing anything, so suppressed
    decisions are auditable too.
    """

    t: int | None
    governor: str  # e.g. "policy"
    setting: str  # the knob changed, e.g. "policy"
    old: object
    new: object
    reason: str
    signals: dict[str, float] = field(default_factory=dict)
    view: str | None = None
    applied: bool = True

    def to_dict(self) -> dict:
        data: dict = {
            "t": self.t,
            "governor": self.governor,
            "setting": self.setting,
            "old": self.old,
            "new": self.new,
            "reason": self.reason,
            "signals": dict(self.signals),
            "applied": self.applied,
        }
        if self.view is not None:
            data["view"] = self.view
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ControlEvent":
        return cls(
            t=data.get("t"),
            governor=data["governor"],
            setting=data["setting"],
            old=data.get("old"),
            new=data.get("new"),
            reason=data.get("reason", ""),
            signals={
                k: float(v) for k, v in data.get("signals", {}).items()
            },
            view=data.get("view"),
            applied=bool(data.get("applied", True)),
        )


class ControlLog:
    """A bounded in-memory ring of control events (thread-safe)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[ControlEvent] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._events)

    def record(self, event: ControlEvent) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self.dropped += 1
            self._events.append(event)

    def events(self) -> list[ControlEvent]:
        with self._lock:
            return list(self._events)

    def filtered(
        self, governor: str | None = None, view: str | None = None
    ) -> list[ControlEvent]:
        """Events matching the optional governor / view filters, in order."""
        return [
            e
            for e in self.events()
            if (governor is None or e.governor == governor)
            and (view is None or e.view == view)
        ]


# --------------------------------------------------------------------------
# Process-global sink (same install/restore contract as the decision log).

_log_lock = threading.Lock()
_log: ControlLog | None = None


def set_control_log(log: ControlLog | None) -> ControlLog | None:
    """Install ``log`` as the process-global sink; returns the previous."""
    global _log
    with _log_lock:
        previous = _log
        _log = log
    return previous


def get_control_log() -> ControlLog | None:
    return _log


@contextmanager
def collecting(capacity: int = DEFAULT_CAPACITY) -> Iterator[ControlLog]:
    """Collect control events into a fresh log for the block's duration."""
    log = ControlLog(capacity)
    previous = set_control_log(log)
    try:
        yield log
    finally:
        set_control_log(previous)


def emit(event: ControlEvent) -> ControlEvent:
    """Record ``event`` in the global log and export its metrics.

    ``control.events`` counts every emission; ``control.actuations``
    only the ones that actually changed a setting.  Governors layer
    their own per-knob counters/gauges on top.
    """
    log = _log
    if log is not None:
        log.record(event)
    from repro import obs

    recorder = obs.get_recorder()
    if recorder is not None:
        recorder.counter("control.events")
        if event.applied:
            recorder.counter("control.actuations")
    return event


# --------------------------------------------------------------------------
# Rendering (the `repro control-log` text tree)


def _event_lines(event: ControlEvent) -> list[str]:
    where = f" view={event.view}" if event.view else ""
    verb = "set" if event.applied else "held"
    head = (
        f"t={event.t} {event.governor}{where}: "
        f"{verb} {event.setting} {event.old!r} -> {event.new!r}"
    )
    items = [f"reason: {event.reason}"]
    if event.signals:
        rendered = ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(event.signals.items())
        )
        items.append(f"signals: {rendered}")
    items.append("applied: yes" if event.applied else "applied: no")
    lines = [head]
    for i, item in enumerate(items):
        connector = "└─" if i == len(items) - 1 else "├─"
        lines.append(f"{connector} {item}")
    return lines


def render_control_log(
    events: Sequence[ControlEvent],
    governor: str | None = None,
    view: str | None = None,
) -> str:
    """Render control events as a text tree (``repro control-log``)."""
    picked = [
        e
        for e in events
        if (governor is None or e.governor == governor)
        and (view is None or e.view == view)
    ]
    if not picked:
        scope_bits = []
        if governor is not None:
            scope_bits.append(f"governor={governor}")
        if view is not None:
            scope_bits.append(f"view={view}")
        suffix = f" matching {' '.join(scope_bits)}" if scope_bits else ""
        return f"control log: no events{suffix}"
    lines = [f"control log: {len(picked)} event(s)"]
    for event in picked:
        lines.extend(_event_lines(event))
    return "\n".join(lines)
