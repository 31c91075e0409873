"""Cost-model calibration: predicted-vs-actual flush residuals.

The planner schedules against the staircase ``f_i(k)`` cost families;
execution charges the simulated operation counter.  This module closes
the loop between them: every per-table flush the IVM maintainer runs
reports ``(predicted f_i(k), actual simulated ms)`` through
:func:`observe_flush`, producing a :class:`CalibrationSample` whose
residual says how far the planner's world model is from reality.

Two consumers, both optional and both observational:

* **metrics** -- samples feed the ``planner.calibration.*`` family
  (abs/rel error and signed residual histograms with the registry's
  shared p50/p95/p99 quantiles), and the ``ivm.flush.*`` batch size,
  predicted and actual histograms, through the ambient recorder;
* **samples** -- each one is a ``calibration`` event of the event log
  (:mod:`repro.obs.events`; :func:`tracking` opens its ring, and
  ``--decision-log`` streams them beside the decisions, where ``repro
  why`` hangs each under the decision of its ``(view, t)``).

Both sides of a residual are simulated milliseconds, so it measures the
staircase against the operation counter, never against wall-clock, and
nothing acts on it.

Nothing here touches the operation counter: cost tables stay
byte-identical with calibration enabled or disabled (guarded by the
decisions/calibration differential test).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.obs import events
from repro.obs.recorder import get_recorder

__all__ = [
    "CalibrationSample",
    "observe_flush",
    "tracking",
]

#: Relative errors are computed against max(|predicted|, this floor) so
#: a zero-cost prediction cannot divide the residual by zero.
REL_ERR_FLOOR = 1e-9


@dataclass(frozen=True)
class CalibrationSample:
    """One predicted-vs-actual observation for a single table flush."""

    view: str | None
    t: int
    alias: str
    k: int  # backlog drained by this flush
    predicted_ms: float
    actual_ms: float

    @property
    def residual_ms(self) -> float:
        """Signed actual - predicted (positive = model too optimistic)."""
        return self.actual_ms - self.predicted_ms

    @property
    def abs_err_ms(self) -> float:
        return abs(self.residual_ms)

    @property
    def rel_err(self) -> float:
        return self.abs_err_ms / max(abs(self.predicted_ms), REL_ERR_FLOOR)

    to_dict = asdict

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationSample":
        return cls(
            view=data.get("view"),
            t=int(data["t"]),
            alias=data["alias"],
            k=int(data["k"]),
            predicted_ms=float(data["predicted_ms"]),
            actual_ms=float(data["actual_ms"]),
        )

    def lines(self) -> list[str]:
        """The flush as one line, hung under its decision by ``repro why``."""
        return [
            f"flushed {self.alias} k={self.k}: actual {self.actual_ms:.3f} ms"
            f" / predicted {self.predicted_ms:.3f} / residual "
            f"{self.residual_ms:+.3f}"
        ]


@contextmanager
def tracking() -> Iterator[events.Ring]:
    """Keep calibration samples for the block; yields the ``calibration``
    ring (``len()``, ``.samples()``)."""
    with events.collecting("calibration") as log:
        yield log.rings["calibration"]


def observe_flush(
    view: str | None,
    t: int,
    alias: str,
    k: int,
    predicted_ms: float,
    actual_ms: float,
) -> CalibrationSample:
    """Record one per-table flush: predicted ``f_i(k)`` vs actual ms.

    The one call a metered flush makes: the ``calibration`` event, the
    ``planner.calibration.*`` family and the ``ivm.flush.*`` histograms.
    """
    sample = CalibrationSample(
        view=view,
        t=t,
        alias=alias,
        k=int(k),
        predicted_ms=float(predicted_ms),
        actual_ms=float(actual_ms),
    )
    events.emit("calibration", sample)
    recorder = get_recorder()
    if recorder is not None:
        recorder.counter("planner.calibration.samples")
        recorder.observe("planner.calibration.abs_err_ms", sample.abs_err_ms)
        recorder.observe("planner.calibration.rel_err", sample.rel_err)
        recorder.observe("planner.calibration.residual", sample.residual_ms)
        recorder.observe("ivm.flush.batch_size", sample.k)
        recorder.observe("ivm.flush.predicted_ms", sample.predicted_ms)
        recorder.observe("ivm.flush.actual_ms", sample.actual_ms)
    return sample
