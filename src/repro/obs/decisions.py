"""Planner decision tracing: what each policy predicted, chose, and why.

The paper's policies act on a *predicted* cost surface -- the staircase
``f_i(k)`` families -- but until now the repo only recorded what
execution *did* (operator attribution, view ledgers).  This module is
the other half of the loop: every policy step emits a structured
:class:`DecisionEvent` capturing the backlog it saw, the candidate
actions it weighed with their per-table predicted costs, the chosen
action, and the winning comparison as a human-readable rationale.

An event is written once and never changed.  What the step then cost
is recorded where it is measured: the view's ledger entry holds the
round's total and charges, and each flush is a ``calibration`` event
(:mod:`repro.obs.calibration`) with its predicted and actual ms, keyed
by the same ``(view, t)``.  In the simulator the executed cost *is* the
prediction, so there is nothing to add.

Design mirrors the rest of ``repro.obs``:

* **strictly observational** -- nothing here reads or writes the
  operation counter; simulated cost tables are byte-identical with
  tracing on or off (guarded by a differential test);
* **off by default** -- policies call :func:`active` first and skip all
  event construction when neither the ``decision`` kind of the event log
  (:mod:`repro.obs.events`) is wanted nor a metrics recorder is present;
* **one sink** -- events go to the ``decision`` kind of the event log
  (:func:`collecting` opens its ring), and the ``--decision-log FILE``
  CLI flag streams them as JSONL, each as it is emitted;
* **metrics for free** -- emission feeds ``planner.decisions.*``
  counters/histograms through the ambient recorder, so the exit table
  and the trace file pick them up unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.engine.costmodel import float_total
from repro.obs import events
from repro.obs.recorder import get_recorder

__all__ = [
    "CandidateAction",
    "DecisionEvent",
    "active",
    "collecting",
    "emit",
    "emit_policy_decision",
]


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


def _fmt_vec(values: Sequence[float]) -> str:
    return "(" + ", ".join(f"{v:.3f}" for v in values) + ")"


@dataclass(frozen=True)
class DecisionEvent:
    """One policy decision.

    ``backlog_ms`` / ``chosen_ms`` hold the per-table predicted
    ``f_i(k)`` costs for the backlog and the chosen action (0.0 for
    components with nothing queued / not flushed).
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

    @property
    def is_flush(self) -> bool:
        return any(self.chosen)

    def lines(self, flushed: Sequence = ()) -> list[str]:
        """The event as a text tree (``repro why``), with the ``lines()``
        of its step's ``flushed`` calibration samples hung last."""
        where = f" view={self.view}" if self.view else ""
        verb = f"flush {tuple(self.chosen)}" if self.is_flush else "defer"
        items = [
            f"backlog {tuple(self.backlog)} "
            f"f_i(s)={_fmt_vec(self.backlog_ms)} ms"
        ]
        if self.limit is not None:
            items.append(f"constraint C={self.limit:.3f} ms")
        for cand in self.candidates:
            mark = " [chosen]" if cand.action == self.chosen else ""
            score = f" H={cand.score:.6f}" if cand.score is not None else ""
            note = f" ({cand.note})" if cand.note else ""
            items.append(
                f"candidate {tuple(cand.action)} "
                f"f={cand.predicted_ms:.3f} ms{score}{note}{mark}"
            )
        items.append(f"rationale: {self.rationale}")
        items.extend(line for sample in flushed for line in sample.lines())
        return events.tree(
            f"t={self.t} {self.policy} [{self.source}]{where}: {verb}", items
        )

    def to_dict(self) -> dict:
        return {
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
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionEvent":
        """Ignores keys it does not know (logs once carried the cost
        each decision was later joined with)."""
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
        )


@contextmanager
def collecting() -> Iterator[events.Ring]:
    """Collect decisions for the block; yields the ``decision`` ring."""
    with events.collecting("decision") as log:
        yield log.rings["decision"]


def active() -> bool:
    """True when emitting a decision event would be observed by anyone."""
    return events.wanted("decision") or get_recorder() is not None


def emit(event: DecisionEvent) -> DecisionEvent:
    """Hand ``event`` to the event log and export its metrics."""
    events.emit("decision", event)
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
    with the thread's running step (:func:`repro.obs.events.current_step`:
    the owning view and who drives it; a bare simulator run has neither),
    and no-ops entirely when tracing is :func:`active`-off.
    """
    if not active():
        return None
    view, _, source = events.current_step()
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
        predicted_ms=float_total(chosen_ms),
        limit=limit,
        rationale=rationale,
        candidates=tuple(candidates),
    )
    return emit(event)
