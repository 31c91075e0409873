"""The one event log: where an observed run's typed events go.

Metrics and spans go to the thread-local :class:`~repro.obs.recorder.Recorder`;
everything else a run reports about itself is a typed *event* of one of
the kinds in :data:`CAPACITY`, emitted through :func:`emit` into the
process-wide :class:`EventLog` (``docs/observability.md`` tabulates who
emits each kind and where it can be read).

Every event class carries ``t`` and ``view`` (the step it belongs to,
which the running thread names with :class:`step`) and ``to_dict()``
(its JSONL form); the three that the CLI renders also ``lines()``
(their text form for :func:`render_trail`).  An event is written once:
nothing changes it after :func:`emit`.  A consumer either **opens a
ring** for a kind (:func:`collecting`: bounded, kept for
:meth:`Ring.events`) or **subscribes** a callback to it
(:func:`subscribe`: streamed, nothing kept; the CLI's event files are
subscribers).  A kind nobody opened or subscribed to is not
:func:`wanted`, and its emitters build no event.

Strictly observational: nothing here touches the operation counter.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "CAPACITY",
    "EventLog",
    "Ring",
    "collecting",
    "current_step",
    "emit",
    "install",
    "installed",
    "render_trail",
    "step",
    "subscribe",
    "tree",
    "wanted",
]

#: The event kinds and the ring capacity of each.  Per kind, so that a
#: flood of decisions cannot evict a rare actuation.
CAPACITY = {
    "decision": 4096,
    "calibration": 65536,
    "actuation": 4096,
    "profile": 256,
}


class Ring:
    """A bounded, locked ring of one kind's events, in emission order.

    Beyond ``capacity`` the oldest event is evicted and counted in
    :attr:`dropped`.  An event is never changed after it is recorded.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._events)

    def record(self, event: Any) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self.dropped += 1
            self._events.append(event)

    def events(self, t: int | None = None) -> list:
        """The events in emission order, optionally of one step."""
        with self._lock:
            picked = list(self._events)
        return picked if t is None else [e for e in picked if e.t == t]

    #: What ``calibration.tracking()``'s callers call it.
    samples = events


class EventLog:
    """One :class:`Ring` per kind that was opened, plus per-kind subscribers."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: kind -> its open ring.
        self.rings: dict[str, Ring] = {}
        #: kind -> who is handed its events: the ring's ``record`` and the
        #: subscribed callbacks.  A kind with nobody is absent.  The
        #: tuples are replaced whole, so :func:`emit` reads without the lock.
        self.wanted: dict[str, tuple[Callable[[Any], None], ...]] = {}

    def subscribe(self, kind: str, callback: Callable[[Any], None]) -> None:
        """Hand every ``kind`` event to ``callback``, inline on the emitting
        thread -- keep callbacks fast and non-raising."""
        if kind not in CAPACITY:
            raise ValueError(f"unknown event kind {kind!r}")
        with self._lock:
            self.wanted[kind] = self.wanted.get(kind, ()) + (callback,)

    def unsubscribe(self, kind: str, callback: Callable[[Any], None]) -> None:
        """Stop handing ``kind`` events to ``callback`` (no error if it
        never subscribed)."""
        with self._lock:
            left = list(self.wanted.get(kind, ()))
            if callback in left:
                left.remove(callback)
                if left:
                    self.wanted[kind] = tuple(left)
                else:
                    del self.wanted[kind]

    def open(self, kind: str) -> bool:
        """Open ``kind``'s ring of :data:`CAPACITY`; false when it is
        already open."""
        with self._lock:
            if kind in self.rings:
                return False
            ring = Ring(CAPACITY[kind])
            self.subscribe(kind, ring.record)
            self.rings[kind] = ring
            return True

    def close(self, kind: str) -> None:
        with self._lock:
            self.unsubscribe(kind, self.rings.pop(kind).record)


_install_lock = threading.Lock()
_log = EventLog()


def install(log: EventLog) -> EventLog:
    """Make ``log`` the process-wide log; returns the one it replaced."""
    global _log
    with _install_lock:
        previous, _log = _log, log
    return previous


def installed() -> EventLog:
    return _log


def wanted(kind: str) -> bool:
    """True when a ``kind`` event would reach a ring or a subscriber.

    Emitters that must pay to *produce* an event ask first; with
    telemetry off this is one global read and one miss in an empty dict.
    """
    return kind in _log.wanted


def emit(kind: str, event: Any) -> None:
    """Hand ``event`` to ``kind``'s ring and subscribers, if any."""
    for deliver in _log.wanted.get(kind, ()):
        deliver(event)


@contextmanager
def collecting(*kinds: str) -> Iterator[EventLog]:
    """Open a ring for each of ``kinds`` for the block; yields the log.

    A kind that is already open is *joined*, not shadowed: the block
    reads the ring that is there and leaves it open, so nested
    collectors of one kind see one trail.
    """
    log = _log
    opened = []
    try:
        for kind in kinds:
            if log.open(kind):
                opened.append(kind)
        yield log
    finally:
        for kind in opened:
            log.close(kind)


@contextmanager
def subscribe(kind: str, callback: Callable[[Any], None]) -> Iterator[None]:
    """Hand every ``kind`` event to ``callback`` for the block.

    A callback that raises stops its emitter there, and the error reaches
    the emitter's caller.  A maintainer emits its ``calibration`` samples
    once the view-round they describe is booked (ledger entry and
    ``record_action``), so a raising subscriber leaves that view-round
    whole; a coordinator's round holds the error as that view's, executes
    the views after it, and raises it when the round is over.  Every view
    stays at a consistent applied LSN.  A subscriber only hears: nothing
    that maintenance does depends on one.
    """
    log = _log
    log.subscribe(kind, callback)
    try:
        yield
    finally:
        log.unsubscribe(kind, callback)


#: The thread's running step: the ``(view, t)`` of :class:`step`.
_tls = threading.local()
_NO_STEP = (None, None, "simulator")


class step:
    """Tag the block as step ``t`` of ``view``: the ``(view, t)`` every
    event kind keys on.

    The maintainer enters it around ``policy.decide`` and around the
    metered flushes, so a decision emitted or a query profiled inside
    carries its owner; nests, and restores the outer tag on exit.
    """

    __slots__ = ("tag", "outer")

    def __init__(self, view: str | None, t: int | None):
        self.tag = (view, t)

    def __enter__(self) -> None:
        self.outer = getattr(_tls, "step", None)
        _tls.step = self.tag

    def __exit__(self, *exc_info) -> None:
        _tls.step = self.outer


def current_step() -> tuple[str | None, int | None, str]:
    """The ``(view, t, source)`` in effect on this thread: inside a
    :class:`step` the live maintainer is driving (``source`` ``"ivm"``);
    outside any, a bare simulator run: ``(None, None, "simulator")``."""
    tag = getattr(_tls, "step", None)
    return _NO_STEP if tag is None else (*tag, "ivm")


def tree(head: str, items: Iterable[str]) -> list[str]:
    """``head`` with ``items`` hung under it: what ``lines()`` returns."""
    items = list(items)
    return [head] + [
        f"{'└─' if i == len(items) - 1 else '├─'} {item}"
        for i, item in enumerate(items)
    ]


def render_trail(
    events: Iterable,
    title: str,
    noun: str,
    *,
    lines: Callable[[Any], list[str]] | None = None,
    **filters,
) -> str:
    """Render events as a text tree (``repro why``, ``repro control-log``).

    ``filters`` keep the events whose attribute of that name equals the
    value (``step`` reads ``t``); ``None`` filters nothing.  Each kept
    event is drawn by ``lines(event)``, by default its own ``lines()``.
    """
    filters = {k: v for k, v in filters.items() if v is not None}
    picked = [
        e
        for e in events
        if all(
            getattr(e, "t" if name == "step" else name) == value
            for name, value in filters.items()
        )
    ]
    if not picked:
        scope = " ".join(f"{k}={v}" for k, v in filters.items())
        return f"{title}: no {noun}s" + (f" matching {scope}" if scope else "")
    out = [f"{title}: {len(picked)} {noun}(s)"]
    for event in picked:
        out.extend(event.lines() if lines is None else lines(event))
    return "\n".join(out)
