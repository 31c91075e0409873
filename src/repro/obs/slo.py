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
| ``slo.near_breaches`` | C | steps within the near-breach band (cost >= ``NEAR_FRACTION * C`` = 0.9 C, but still within ``C``) |

Metrics are recorded only when a recorder is installed (the usual
no-op-when-disabled contract).  Every breach / near-breach is also an
``slo`` event of the event log (:mod:`repro.obs.events`), recorder or
not, so a callback subscribed with ``events.subscribe("slo", cb)`` can
page without paying for metrics; callers observe when either is there
to see it.
Classification (:func:`classify`) is shared with the offline per-policy
SLO summary in :func:`repro.core.report.slo_summary`, so the live
counters and the post-run table can never disagree.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

from repro.obs import events
from repro.obs.recorder import get_recorder

#: Near-breach band: cost at or above this fraction of the limit.
NEAR_FRACTION = 0.9

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

    @property
    def view(self) -> str | None:
        """The view a live maintainer observed (``source="ivm:<view>"``)."""
        return self.source[4:] if self.source.startswith("ivm:") else None

    to_dict = asdict

    def __str__(self) -> str:
        where = f" t={self.t}" if self.t is not None else ""
        who = f" [{self.source}]" if self.source else ""
        return (
            f"SLO {self.kind}{who}{where}: refresh cost {self.cost:.2f} "
            f"vs C={self.limit:.2f} (margin {self.margin:+.2f})"
        )


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


def classify(limit: float, cost: float) -> str | None:
    """``BREACH``, ``NEAR_BREACH``, or ``None`` for one cost vs limit.

    A non-positive ``limit`` is clamped to 0.0 with a one-shot warning
    (see :func:`_coerce_limit`); the near-breach band then degenerates
    to the single point 0, so the signal never goes dark.
    """
    limit = _coerce_limit(limit)
    if cost > limit + _EPS:
        return BREACH
    if cost >= NEAR_FRACTION * limit - _EPS:
        return NEAR_BREACH
    return None


def observe_refresh(
    limit: float,
    cost: float,
    t: int | None = None,
    source: str = "",
) -> SloEvent | None:
    """Record one refresh-cost-vs-limit observation.

    Feeds the ``slo.*`` metric family (when a recorder is installed) and
    emits an ``slo`` event on a breach or near-breach.  Returns the event
    when there was one, else ``None``.
    """
    limit = _coerce_limit(limit)
    margin = limit - cost
    recorder = get_recorder()
    if recorder is not None:
        recorder.gauge("slo.limit", limit)
        recorder.gauge("slo.refresh_margin", margin)
        recorder.observe("slo.refresh_margin.step", margin)
        recorder.counter("slo.steps")
    kind = classify(limit, cost)
    if kind is None:
        return None
    if recorder is not None:
        recorder.counter(
            "slo.breaches" if kind == BREACH else "slo.near_breaches"
        )
    event = SloEvent(
        kind=kind, limit=float(limit), cost=float(cost), t=t, source=source
    )
    events.emit("slo", event)
    return event
