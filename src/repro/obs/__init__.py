"""``repro.obs`` -- metrics, span tracing, and profiling hooks.

The reproduction's uniform self-observation layer.  Every other package
(``core``, ``engine``, ``ivm``, the CLI, the benchmarks) reports what it
does through the module-level helpers here:

    from repro import obs

    with obs.trace("astar.search", horizon=T):   # nested wall-clock span
        ...
        obs.counter("astar.expanded", expanded)  # monotone event count
        obs.gauge_max("astar.heap_peak", size)   # peak instantaneous value
        obs.observe("simulator.decide_ms", dt)   # distribution (p50/p95/max)

By default **nothing is recorded**: no recorder is installed, every
helper is a thread-local miss plus ``return``, and ``trace`` returns a
shared no-op span.  A run opts in by installing a :class:`Recorder`
(the CLI's global ``--trace FILE`` / ``--metrics`` flags do this, as does
the benchmark harness), after which metrics accumulate in a registry and
-- when tracing is on -- spans are exported as Chrome-trace-compatible
JSONL via :meth:`Recorder.write_trace`.

See ``docs/observability.md`` for the metric-name catalog and the trace
file format.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import events
from repro.obs import attrib
from repro.obs import slo
from repro.obs import calibration
from repro.obs import decisions
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_name,
)
from repro.obs.recorder import Recorder, _active, get_recorder, install
from repro.obs.tracing import (
    NULL_SPAN,
    NullSpan,
    Span,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "Recorder",
    "Span",
    "attrib",
    "calibration",
    "check_name",
    "counter",
    "decisions",
    "events",
    "gauge_max",
    "get_recorder",
    "install",
    "observe",
    "read_jsonl",
    "recording",
    "slo",
    "trace",
    "write_jsonl",
]

@contextmanager
def recording(trace: bool = False) -> Iterator[Recorder]:
    """Install a fresh :class:`Recorder` for the duration of a block.

    The previous recorder (usually none) is restored on exit, so
    recordings nest safely -- the inner block simply shadows the outer.
    """
    previous = get_recorder()
    recorder = Recorder(trace=trace)
    install(recorder)
    try:
        yield recorder
    finally:
        install(previous)


# ----------------------------------------------------------------------
# Instrumentation helpers: no-ops unless a recorder is installed.
# ----------------------------------------------------------------------


def counter(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` by ``amount``."""
    recorder = getattr(_active, "recorder", None)
    if recorder is not None:
        recorder.counter(name, amount)


def gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if it is a new peak."""
    recorder = getattr(_active, "recorder", None)
    if recorder is not None:
        recorder.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name``."""
    recorder = getattr(_active, "recorder", None)
    if recorder is not None:
        recorder.observe(name, value)


def trace(name: str, **args: Any) -> Span | NullSpan:
    """A context manager recording a nested wall-clock span.

    With no recorder installed this returns a shared stateless no-op, so
    ``with obs.trace(...)`` costs one attribute miss on the disabled path.
    """
    recorder = getattr(_active, "recorder", None)
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **args)
