"""Refresh-SLO tracking: the paper's deadline margin as live metrics.

The paper's operational guarantee is that the view must stay refreshable
within the response-time constraint ``C`` at every step -- equivalently,
the *refresh-deadline margin* ``C - f(s_t)`` must stay non-negative.
This module turns that quantity into a first-class ``slo.*`` metric
family, recorded wherever a refresh cost meets its limit (the core
simulator, the staged simulator, the pub/sub broker):

| name | kind | meaning |
|---|---|---|
| ``slo.limit`` | G | the constraint ``C`` in effect |
| ``slo.refresh_margin`` | G | current margin ``C - f(s_t)`` (negative = breach) |
| ``slo.refresh_margin.step`` | H | per-step margin distribution |
| ``slo.steps`` | C | margin observations |
| ``slo.breaches`` | C | steps whose refresh cost exceeded ``C`` |
| ``slo.near_breaches`` | C | steps within the near-breach band (cost >= ``near_fraction * C``, default 0.9, but still within ``C``) |

Metrics are recorded only when a recorder is installed (the usual
no-op-when-disabled contract).  **Alert callbacks** registered with
:func:`on_alert` fire on every breach / near-breach regardless of
recording, so a pub/sub deployment can page without paying for metrics.
Classification (:func:`classify`) is shared with the offline per-policy
SLO summary in :func:`repro.core.report.slo_summary`, so the live
counters and the post-run table can never disagree.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder

#: Near-breach band: cost at or above this fraction of the limit.
DEFAULT_NEAR_FRACTION = 0.9

_EPS = 1e-9

BREACH = "breach"
NEAR_BREACH = "near_breach"


@dataclass(frozen=True)
class SloEvent:
    """One breach or near-breach of the refresh-deadline constraint."""

    kind: str  # BREACH or NEAR_BREACH
    limit: float
    cost: float
    t: int | None = None
    source: str = ""

    @property
    def margin(self) -> float:
        """The deadline margin ``C - f(s_t)`` (negative on a breach)."""
        return self.limit - self.cost

    def __str__(self) -> str:
        where = f" t={self.t}" if self.t is not None else ""
        who = f" [{self.source}]" if self.source else ""
        return (
            f"SLO {self.kind}{who}{where}: refresh cost {self.cost:.2f} "
            f"vs C={self.limit:.2f} (margin {self.margin:+.2f})"
        )


class AlertHub:
    """A thread-safe callback registry for alert events.

    The shared plumbing behind the ``slo.*`` alert surface and the
    planner-calibration drift alerts (:mod:`repro.obs.calibration`):
    register with :meth:`add` (decorator-friendly), scope to a ``with``
    block via :meth:`scoped`, and :meth:`fire` delivers an event to
    every registered callback inline on the observing thread -- keep
    callbacks fast and non-raising.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._callbacks: list[Callable] = []

    def add(self, callback: Callable) -> Callable:
        with self._lock:
            self._callbacks.append(callback)
        return callback

    def remove(self, callback: Callable) -> None:
        """Unregister a callback (no error if it was never registered)."""
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    @contextmanager
    def scoped(self, callback: Callable) -> Iterator[None]:
        self.add(callback)
        try:
            yield
        finally:
            self.remove(callback)

    def active(self) -> bool:
        """True when at least one callback would observe a fire.

        Reads the list's truth without the lock: callers ask on every
        maintenance round with telemetry off, and one read of a list
        that ``add``/``remove`` only ever mutate under the lock is
        consistent by itself.
        """
        return bool(self._callbacks)

    def fire(self, event) -> None:
        with self._lock:
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(event)


_hub = AlertHub()


def on_alert(callback: Callable[[SloEvent], None]) -> Callable[[SloEvent], None]:
    """Register ``callback`` to run on every breach/near-breach event.

    Returns the callback (usable as a decorator).  Callbacks run inline
    on the observing thread; keep them fast and non-raising.
    """
    return _hub.add(callback)


def remove_alert(callback: Callable[[SloEvent], None]) -> None:
    """Unregister a callback (no error if it was never registered)."""
    _hub.remove(callback)


def alerts(callback: Callable[[SloEvent], None]):
    """Scope a callback registration to a ``with`` block (tests, scripts)."""
    return _hub.scoped(callback)


def hub_active() -> bool:
    """True when at least one alert callback is registered.

    Observers that must pay to *produce* an observation (the live
    maintainer evaluates cost functions per round) use this to skip the
    work when neither a recorder nor any alert subscriber would see it.
    """
    return _hub.active()


_invalid_limit_warned = False


def _coerce_limit(limit: float) -> float:
    """Clamp a non-positive constraint to 0.0, warning once per process.

    A zero or negative deadline is a configuration error: no refresh can
    beat it.  The old behavior silently disabled the near-breach band
    (``limit > 0`` guarded the whole branch), which turned exactly the
    misconfigured runs -- the ones a controller most needs to see --
    into dark signals.  Clamping to 0 keeps the classification total:
    any positive cost is a breach, and a zero cost sits on the (empty)
    band boundary and reports ``NEAR_BREACH``, so downstream consumers
    always hear about a run with no headroom at all.
    """
    global _invalid_limit_warned
    if limit > 0:
        return float(limit)
    if not _invalid_limit_warned:
        _invalid_limit_warned = True
        warnings.warn(
            f"SLO limit {limit!r} is not positive; clamping to 0.0 "
            f"(every observation will classify as a breach or "
            f"near-breach -- fix the constraint C)",
            RuntimeWarning,
            stacklevel=3,
        )
    return 0.0


def classify(
    limit: float, cost: float, near_fraction: float = DEFAULT_NEAR_FRACTION
) -> str | None:
    """``BREACH``, ``NEAR_BREACH``, or ``None`` for one cost vs limit.

    A non-positive ``limit`` is clamped to 0.0 with a one-shot warning
    (see :func:`_coerce_limit`); the near-breach band then degenerates
    to the single point 0, so the signal never goes dark.
    """
    limit = _coerce_limit(limit)
    if cost > limit + _EPS:
        return BREACH
    if cost >= near_fraction * limit - _EPS:
        return NEAR_BREACH
    return None


def observe_refresh(
    limit: float,
    cost: float,
    t: int | None = None,
    source: str = "",
    near_fraction: float = DEFAULT_NEAR_FRACTION,
) -> SloEvent | None:
    """Record one refresh-cost-vs-limit observation.

    Feeds the ``slo.*`` metric family (when a recorder is installed) and
    fires registered alert callbacks on a breach or near-breach.
    Returns the event when one fired, else ``None``.
    """
    limit = _coerce_limit(limit)
    margin = limit - cost
    recorder = get_recorder()
    if recorder is not None:
        recorder.gauge("slo.limit", limit)
        recorder.gauge("slo.refresh_margin", margin)
        recorder.observe("slo.refresh_margin.step", margin)
        recorder.counter("slo.steps")
    kind = classify(limit, cost, near_fraction)
    if kind is None:
        return None
    if recorder is not None:
        recorder.counter(
            "slo.breaches" if kind == BREACH else "slo.near_breaches"
        )
    event = SloEvent(
        kind=kind, limit=float(limit), cost=float(cost), t=t, source=source
    )
    _hub.fire(event)
    return event


def summarize(registry: MetricsRegistry) -> dict:
    """The ``slo.*`` family of one registry as a plain summary dict."""

    def counter(name: str) -> int:
        metric = registry.get(name)
        return metric.value if metric is not None else 0

    margin = registry.get("slo.refresh_margin")
    dist = registry.get("slo.refresh_margin.step")
    return {
        "steps": counter("slo.steps"),
        "breaches": counter("slo.breaches"),
        "near_breaches": counter("slo.near_breaches"),
        "limit": (
            registry.get("slo.limit").value
            if registry.get("slo.limit") is not None
            else None
        ),
        "current_margin": margin.value if margin is not None else None,
        "min_margin": (
            dist.min if dist is not None and dist.count else None
        ),
    }
