"""The :class:`Recorder`: one run's metrics + trace, thread-local install.

Design constraints, in order:

1. **Disabled must cost ~nothing.**  The default state is *no recorder
   installed*; every instrumentation helper in :mod:`repro.obs` then
   reduces to one thread-local attribute miss and a ``return``, and
   ``obs.trace(...)`` hands back a shared stateless null span.  Hot loops
   (A* expansion, per-tuple operators) additionally batch their tallies
   locally and emit one metric call per region, so even *enabled*
   recording stays off the per-row path.
2. **One object owns a run.**  A ``Recorder`` bundles a
   :class:`~repro.obs.metrics.MetricsRegistry` and (optionally) a trace
   buffer plus the monotonic time origin, so concurrent runs (tests,
   benchmark harnesses) cannot bleed into each other.
3. **Thread-local install.**  ``obs.install(recorder)`` binds the
   recorder to the calling thread only; worker threads opt in explicitly.
   Span parenting uses a per-thread stack inside the recorder, so spans
   opened on different threads never corrupt each other's nesting.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    Span,
    TraceBuffer,
    metric_events,
    span_event,
    write_jsonl,
)


class _Active(threading.local):
    #: What a thread that never installed a recorder reads: found on the
    #: class, so the disabled path of every ``obs`` helper is an attribute
    #: hit rather than a raised-and-caught ``AttributeError`` (5x the cost).
    recorder: "Recorder | None" = None


#: The calling thread's installed recorder lives here rather than in the
#: package ``__init__`` so the sibling modules that package imports
#: (``decisions``, ``calibration``) can bind :func:`get_recorder`
#: at import time; ``repro.obs`` re-exports both functions.
_active = _Active()


def install(recorder: "Recorder | None") -> None:
    """Bind ``recorder`` to the calling thread (``None`` uninstalls)."""
    _active.recorder = recorder


def get_recorder() -> "Recorder | None":
    """The calling thread's recorder, or ``None`` when observation is off."""
    return getattr(_active, "recorder", None)


class Recorder:
    """Collects one run's metrics and (optionally) trace spans.

    Parameters
    ----------
    trace:
        When true, spans are recorded as Chrome-trace events (metrics are
        always on for an installed recorder -- they are cheap).  Span
        wall-clock durations additionally feed ``<span-name>.ms``
        histograms in the registry either way, so a ``--metrics``-only run
        still reports phase timings.
    """

    def __init__(self, trace: bool = False):
        self.trace_enabled = bool(trace)
        self.registry = MetricsRegistry()
        self.events = TraceBuffer()
        self._origin = time.perf_counter()
        self._span_ids = itertools.count(1)
        self._tls = threading.local()

    # -- time ---------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this recorder was created (trace timebase)."""
        return (time.perf_counter() - self._origin) * 1e6

    # -- metrics ------------------------------------------------------------

    def counter(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def gauge_max(self, name: str, value: float) -> None:
        self.registry.gauge(name).set_max(value)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    # -- spans --------------------------------------------------------------

    def span(self, name: str, **args: Any) -> Span:
        return Span(self, name, args)

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open_span(self, span: Span) -> None:
        stack = self._stack()
        span.id = next(self._span_ids)
        span.parent = stack[-1].id if stack else None
        span.tid = threading.get_ident() % 1_000_000
        stack.append(span)

    def _close_span(self, span: Span, duration_s: float) -> None:
        stack = self._stack()
        # Tolerate exits out of order (generators finalized late): unwind
        # to this span rather than corrupting the remaining stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
        dur_us = duration_s * 1e6
        self.observe(f"{span.name}.ms", duration_s * 1e3)
        if self.trace_enabled:
            self.events.append(
                span_event(span, self.now_us() - dur_us, dur_us)
            )

    # -- export -------------------------------------------------------------

    def trace_events(self, include_metrics: bool = True) -> list[dict]:
        """Finished span events, plus counter events for the metrics."""
        events = self.events.events()
        if include_metrics:
            events.extend(metric_events(self.registry.snapshot(), self.now_us()))
        return events

    def write_trace(self, path: str | Path) -> int:
        """Dump the run as Chrome-trace JSONL; returns the event count."""
        return write_jsonl(self.trace_events(), path)

    def summary_table(self) -> str:
        return self.registry.summary_table()

    def __repr__(self) -> str:
        return (
            f"Recorder(metrics={len(self.registry)}, "
            f"spans={len(self.events)}, trace={self.trace_enabled})"
        )
