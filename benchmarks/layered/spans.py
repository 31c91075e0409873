"""Harness-side spans around every call into a layer, and the pass clock.

Spans are recorded from the benchmark's own files (spans inside the program
are a later change): ``{id, parent, name, start, end, workload, rep, round}``,
kept in memory and written out when the benchmark ends.  A layer's self time
is its span minus the part its children cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from .refkernel import slowdown


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span recorder for one traced pass."""

    enabled = True

    def __init__(self, workload: str, rep: int):
        self.workload = workload
        self.rep = rep
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, round: int | None = None) -> _Span:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "workload": self.workload,
            "rep": self.rep,
            "round": round,
        }
        self.spans.append(record)
        return _Span(self, record)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1]["name"] if self._stack else None

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans.

        ``under`` restricts the sum to spans inside a span of that name.
        """
        child_time: dict[int, float] = defaultdict(float)
        inside: set[int] = set()
        for s in self.spans:  # parents are recorded before their children
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
                if s["parent"] in inside or self.spans[s["parent"]]["name"] == under:
                    inside.add(s["id"])
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if under is None or s["id"] in inside:
                out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced passes' tracer: every span is a shared no-op."""

    enabled = False

    def span(self, name: str, round: int | None = None) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None


class Clock:
    """Splits a pass's timed region into segments and samples the reference
    kernel between them.

    Every pass of one workload executes the same segments on the same
    inputs, so segment ``i`` of pass ``a`` and of pass ``b`` did identical
    work; the runner folds them (see ``runner.fold_passes``).
    ``lap(latency=True)`` also marks the segment as one sample of the
    workload's latency operation.  Work between ``lap()`` and the next
    ``start()`` (oracle checks, reference samples) is outside the timed
    region.
    """

    #: Take a reference sample at the first segment boundary this long
    #: after the previous one (a sample is ~5 ms: ~10% on top of the run).
    SAMPLE_EVERY_S = 0.05
    #: A segment's slowdown is the median of this many samples before it and
    #: as many after: one 6 ms sample is itself noisy (p10..p90 = +-15%),
    #: the drift it tracks lasts seconds.
    SMOOTH_SAMPLES = 3

    def __init__(self, reference) -> None:
        self.reference = reference
        self.walls: list[float] = []
        self.latency_idx: list[int] = []
        self.samples: list[float] = []
        #: Per segment: index of the last reference sample before it.
        self._sample_before: list[int] = []
        self._sampled_at = 0.0
        self._last = 0.0

    def _sample(self) -> None:
        self.samples.append(self.reference.sample())
        self._sampled_at = self._last = time.perf_counter()

    def start(self) -> None:
        self._sample()

    def lap(self, latency: bool = False) -> float:
        now = time.perf_counter()
        wall = now - self._last
        if latency:
            self.latency_idx.append(len(self.walls))
        self.walls.append(wall)
        self._sample_before.append(len(self.samples) - 1)
        if now - self._sampled_at >= self.SAMPLE_EVERY_S:
            self._sample()
        else:
            self._last = now
        return wall

    def stop(self) -> None:
        """Close the region with a final sample, so every segment has one
        on either side."""
        self._sample()

    def slowdowns(self) -> list[float]:
        """Per segment: how much slower than nominal the host ran beside it."""
        samples = self.samples
        reach = self.SMOOTH_SAMPLES
        return [
            slowdown(statistics.median(samples[max(0, i + 1 - reach): i + 1 + reach]))
            for i in self._sample_before
        ]
