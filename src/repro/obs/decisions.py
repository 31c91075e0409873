"""Planner decision tracing: what each policy predicted, chose, and why.

The paper's policies act on a *predicted* cost surface -- the staircase
``f_i(k)`` families -- but until now the repo only recorded what
execution *did* (operator attribution, view ledgers).  This module is
the other half of the loop: every policy step emits a structured
:class:`DecisionEvent` capturing the backlog it saw, the candidate
actions it weighed with their per-table predicted costs, the chosen
action, and the winning comparison as a human-readable rationale.  At
execution time the event is joined with the actual simulated charge
(:meth:`DecisionLog.join`), so every decision carries its own
predicted-vs-actual residual.

Design mirrors the rest of ``repro.obs``:

* **strictly observational** -- nothing here reads or writes the
  operation counter; simulated cost tables are byte-identical with
  tracing on or off (guarded by a differential test);
* **off by default** -- policies call :func:`active` first and skip all
  event construction when neither a :class:`DecisionLog` is installed
  (:func:`set_decision_log`) nor a metrics recorder is present;
* **process-global sink** -- :func:`set_decision_log` follows the
  ``attrib.set_profile_sink`` install/restore contract, and the
  ``--decision-log FILE`` CLI flag dumps the joined events as JSONL;
* **metrics for free** -- emission feeds ``planner.decisions.*``
  counters/histograms through the ambient recorder, so the flight
  recorder, ``/metrics``, and ``/snapshot`` pick them up unchanged.

The ``(view, step)`` pair keys the execution-time join.  When nested
planning emits several events for one step (RecedingHorizon runs an A*
search that reports its own ``OPT_LGM`` event), the **last** event
emitted for a key wins the join -- i.e. the outer policy's decision, the
one whose action actually executes.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.obs.recorder import get_recorder

__all__ = [
    "CandidateAction",
    "DecisionEvent",
    "DecisionLog",
    "active",
    "collecting",
    "current_scope",
    "emit",
    "emit_policy_decision",
    "get_decision_log",
    "render_decision_trail",
    "scope",
    "set_decision_log",
]

#: Default ring capacity of a :class:`DecisionLog`; old events are
#: evicted (and counted in :attr:`DecisionLog.dropped`) beyond this.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class CandidateAction:
    """One action a policy weighed, with its predicted cost and score."""

    action: tuple[int, ...]
    predicted_ms: float
    score: float | None = None  # policy-specific (e.g. ONLINE's H)
    note: str = ""

    def to_dict(self) -> dict:
        data: dict = {
            "action": list(self.action),
            "predicted_ms": self.predicted_ms,
        }
        if self.score is not None:
            data["score"] = self.score
        if self.note:
            data["note"] = self.note
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateAction":
        return cls(
            action=tuple(int(x) for x in data["action"]),
            predicted_ms=float(data["predicted_ms"]),
            score=data.get("score"),
            note=data.get("note", ""),
        )


@dataclass
class DecisionEvent:
    """One policy decision, joined later with its executed cost.

    ``backlog_ms`` / ``chosen_ms`` hold the per-table predicted
    ``f_i(k)`` costs for the backlog and the chosen action (0.0 for
    components with nothing queued / not flushed).  The ``actual_*``
    fields stay ``None`` until :meth:`DecisionLog.join` fills them at
    execution time.
    """

    t: int
    policy: str
    backlog: tuple[int, ...]
    backlog_ms: tuple[float, ...]
    chosen: tuple[int, ...]
    chosen_ms: tuple[float, ...]
    predicted_ms: float
    rationale: str
    candidates: tuple[CandidateAction, ...] = ()
    limit: float | None = None
    view: str | None = None
    source: str = "simulator"
    actual_ms: float | None = None
    actual_table_ms: dict[str, float] = field(default_factory=dict)
    charges: dict[str, int] = field(default_factory=dict)

    @property
    def residual_ms(self) -> float | None:
        """Signed actual - predicted, once the event has been joined."""
        if self.actual_ms is None:
            return None
        return self.actual_ms - self.predicted_ms

    @property
    def is_flush(self) -> bool:
        return any(self.chosen)

    def to_dict(self) -> dict:
        data: dict = {
            "t": self.t,
            "policy": self.policy,
            "source": self.source,
            "view": self.view,
            "backlog": list(self.backlog),
            "backlog_ms": list(self.backlog_ms),
            "chosen": list(self.chosen),
            "chosen_ms": list(self.chosen_ms),
            "predicted_ms": self.predicted_ms,
            "limit": self.limit,
            "rationale": self.rationale,
            "candidates": [c.to_dict() for c in self.candidates],
            "actual_ms": self.actual_ms,
        }
        if self.actual_table_ms:
            data["actual_table_ms"] = dict(self.actual_table_ms)
        if self.charges:
            data["charges"] = dict(self.charges)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionEvent":
        return cls(
            t=int(data["t"]),
            policy=data["policy"],
            source=data.get("source", "simulator"),
            view=data.get("view"),
            backlog=tuple(int(x) for x in data["backlog"]),
            backlog_ms=tuple(float(x) for x in data["backlog_ms"]),
            chosen=tuple(int(x) for x in data["chosen"]),
            chosen_ms=tuple(float(x) for x in data["chosen_ms"]),
            predicted_ms=float(data["predicted_ms"]),
            limit=data.get("limit"),
            rationale=data.get("rationale", ""),
            candidates=tuple(
                CandidateAction.from_dict(c) for c in data.get("candidates", ())
            ),
            actual_ms=data.get("actual_ms"),
            actual_table_ms=dict(data.get("actual_table_ms", {})),
            charges=dict(data.get("charges", {})),
        )


class DecisionLog:
    """A bounded in-memory ring of decision events with a join index.

    Thread-safe.  The index maps ``(view, t)`` to the most recent event
    emitted for that key, so :meth:`join` attaches the executed cost to
    the decision whose action actually ran (see module docstring).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[DecisionEvent] = deque()
        self._index: dict[tuple[str | None, int], DecisionEvent] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._events)

    def record(self, event: DecisionEvent) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                evicted = self._events.popleft()
                self.dropped += 1
                key = (evicted.view, evicted.t)
                if self._index.get(key) is evicted:
                    del self._index[key]
            self._events.append(event)
            self._index[(event.view, event.t)] = event

    def join(
        self,
        view: str | None,
        t: int,
        actual_ms: float,
        table_ms: dict[str, float] | None = None,
        charges: dict[str, int] | None = None,
    ) -> DecisionEvent | None:
        """Attach the executed cost to the decision for ``(view, t)``.

        Returns the joined event, or ``None`` if no decision was
        recorded for that key (e.g. a forced refresh that bypassed the
        policy).
        """
        with self._lock:
            event = self._index.get((view, t))
        if event is None:
            return None
        event.actual_ms = actual_ms
        if table_ms:
            event.actual_table_ms = dict(table_ms)
        if charges:
            event.charges = dict(charges)
        recorder = get_recorder()
        if recorder is not None:
            recorder.counter("planner.decisions.joined")
        return event

    def events(self) -> list[DecisionEvent]:
        with self._lock:
            return list(self._events)

    def filtered(
        self, view: str | None = None, step: int | None = None
    ) -> list[DecisionEvent]:
        """Events matching the optional view / step filters, in order."""
        return [
            e
            for e in self.events()
            if (view is None or e.view == view)
            and (step is None or e.t == step)
        ]


# --------------------------------------------------------------------------
# Process-global sink (same install/restore contract as attrib's profile
# sink) and a thread-local scope tagging events with the owning view.

_log_lock = threading.Lock()
_log: DecisionLog | None = None
_tls = threading.local()


def set_decision_log(log: DecisionLog | None) -> DecisionLog | None:
    """Install ``log`` as the process-global sink; returns the previous."""
    global _log
    with _log_lock:
        previous = _log
        _log = log
    return previous


def get_decision_log() -> DecisionLog | None:
    return _log


@contextmanager
def collecting(capacity: int = DEFAULT_CAPACITY) -> Iterator[DecisionLog]:
    """Collect decisions into a fresh log for the duration of the block."""
    log = DecisionLog(capacity)
    previous = set_decision_log(log)
    try:
        yield log
    finally:
        set_decision_log(previous)


@contextmanager
def scope(view: str | None = None, source: str = "ivm") -> Iterator[None]:
    """Tag decisions emitted inside the block with a view id and source.

    The IVM maintainer wraps each ``policy.decide`` call in
    ``scope(view=...)`` so fleet decisions join against the right
    ledger rounds; bare simulator runs leave the default
    ``(None, "simulator")`` scope in place.
    """
    previous = getattr(_tls, "scope", None)
    _tls.scope = (view, source)
    try:
        yield
    finally:
        _tls.scope = previous


def current_scope() -> tuple[str | None, str]:
    return getattr(_tls, "scope", None) or (None, "simulator")


def active() -> bool:
    """True when emitting a decision event would be observed by anyone."""
    if _log is not None:
        return True
    return get_recorder() is not None


def emit(event: DecisionEvent) -> DecisionEvent:
    """Record ``event`` in the global log and export its metrics."""
    log = _log
    if log is not None:
        log.record(event)
    recorder = get_recorder()
    if recorder is not None:
        recorder.counter("planner.decisions.emitted")
        recorder.counter(
            "planner.decisions.flush"
            if event.is_flush
            else "planner.decisions.defer"
        )
        recorder.observe(
            "planner.decisions.candidates", float(len(event.candidates))
        )
        recorder.observe("planner.decisions.predicted_ms", event.predicted_ms)
    return event


def _table_costs(
    cost_functions: Sequence[Callable[[int], float]], vector: Sequence[int]
) -> tuple[float, ...]:
    """Per-table predicted ``f_i(k)``; zero components cost nothing."""
    return tuple(
        float(f(int(k))) if int(k) > 0 else 0.0
        for f, k in zip(cost_functions, vector)
    )


def emit_policy_decision(
    policy: str,
    t: int,
    backlog: Sequence[int],
    cost_functions: Sequence[Callable[[int], float]],
    limit: float | None,
    chosen: Sequence[int],
    rationale: str,
    candidates: Sequence[CandidateAction] = (),
) -> DecisionEvent | None:
    """Build and emit a :class:`DecisionEvent` for one policy step.

    Convenience wrapper used by the core policies: computes the
    per-table predicted costs from the staircase family, tags the event
    with the current :func:`scope`, and no-ops entirely when tracing is
    :func:`active`-off.
    """
    if not active():
        return None
    view, source = current_scope()
    chosen_tuple = tuple(int(x) for x in chosen)
    chosen_ms = _table_costs(cost_functions, chosen_tuple)
    event = DecisionEvent(
        t=t,
        policy=policy,
        view=view,
        source=source,
        backlog=tuple(int(x) for x in backlog),
        backlog_ms=_table_costs(cost_functions, backlog),
        chosen=chosen_tuple,
        chosen_ms=chosen_ms,
        predicted_ms=sum(chosen_ms),
        limit=limit,
        rationale=rationale,
        candidates=tuple(candidates),
    )
    return emit(event)


# --------------------------------------------------------------------------
# Rendering (the `repro why` text tree)


def _fmt_vec(values: Sequence[float]) -> str:
    return "(" + ", ".join(f"{v:.3f}" for v in values) + ")"


def _event_lines(event: DecisionEvent) -> list[str]:
    where = f" view={event.view}" if event.view else ""
    verb = (
        f"flush {tuple(event.chosen)}" if event.is_flush else "defer"
    )
    head = f"t={event.t} {event.policy} [{event.source}]{where}: {verb}"
    items = [
        f"backlog {tuple(event.backlog)} f_i(s)={_fmt_vec(event.backlog_ms)} ms"
    ]
    if event.limit is not None:
        items.append(f"constraint C={event.limit:.3f} ms")
    for cand in event.candidates:
        mark = " [chosen]" if cand.action == event.chosen else ""
        score = f" H={cand.score:.6f}" if cand.score is not None else ""
        note = f" ({cand.note})" if cand.note else ""
        items.append(
            f"candidate {tuple(cand.action)} "
            f"f={cand.predicted_ms:.3f} ms{score}{note}{mark}"
        )
    items.append(f"rationale: {event.rationale}")
    if event.actual_ms is not None:
        residual = event.residual_ms or 0.0
        items.append(
            f"actual {event.actual_ms:.3f} ms "
            f"(predicted {event.predicted_ms:.3f}, residual {residual:+.3f})"
        )
    lines = [head]
    for i, item in enumerate(items):
        connector = "└─" if i == len(items) - 1 else "├─"
        lines.append(f"{connector} {item}")
    return lines


def render_decision_trail(
    events: Sequence[DecisionEvent],
    view: str | None = None,
    step: int | None = None,
) -> str:
    """Render a sequence of decisions as a text tree (``repro why``)."""
    picked = [
        e
        for e in events
        if (view is None or e.view == view) and (step is None or e.t == step)
    ]
    if not picked:
        scope_bits = []
        if view is not None:
            scope_bits.append(f"view={view}")
        if step is not None:
            scope_bits.append(f"step={step}")
        suffix = f" matching {' '.join(scope_bits)}" if scope_bits else ""
        return f"decision trail: no decisions{suffix}"
    lines = [f"decision trail: {len(picked)} decision(s)"]
    for event in picked:
        lines.extend(_event_lines(event))
    return "\n".join(lines)
