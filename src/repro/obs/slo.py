"""Refresh-SLO verdicts: the paper's deadline margin, read from a record.

The paper's operational guarantee is that the view must stay refreshable
within the response-time constraint ``C`` at every step -- equivalently,
the *refresh-deadline margin* ``C - f(s_t)`` of the pre-action state
must stay non-negative.  Every run records that state: a
:class:`~repro.core.plan.PlanTrace` its ``pre_states``, a live view its
ledger entries' ``pre_state``.  A verdict is :func:`classify` of a
recorded state's cost against ``C``, made when the record is read: the
offline per-policy table (:func:`repro.core.report.slo_summary`, which
``repro timeline`` prints) and a live view-round's verdict
(:func:`repro.ivm.governor.verdict`, which the governor acts on) share
it, so no two readers can disagree.
"""

from __future__ import annotations

import warnings

#: Near-breach band: cost at or above this fraction of the limit.
NEAR_FRACTION = 0.9

_EPS = 1e-9

BREACH = "breach"
NEAR_BREACH = "near_breach"


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
