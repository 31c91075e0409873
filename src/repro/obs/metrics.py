"""Zero-dependency metrics: counters, gauges, and quantile histograms.

Metrics live in a :class:`MetricsRegistry` under dotted names
(``astar.expanded``, ``engine.join.rows_out``, ``ivm.flush.cost_ms``).
The registry is deliberately tiny -- no labels, no exporters, no
background threads -- because its job here is narrow: give every layer of
the reproduction one uniform place to record what it did, cheap enough to
leave compiled into the hot paths.

Three metric kinds:

* :class:`Counter` -- a monotonically increasing integer (events, rows).
* :class:`Gauge` -- a last-write-wins float (peak heap size, backlog).
* :class:`Histogram` -- a value distribution with ``p50``/``p95``/``max``
  summaries (batch sizes, per-step latencies).  Bounded by reservoir
  sampling so unboundedly long runs cannot exhaust memory; counts and
  totals stay exact, quantiles become approximate past the reservoir.

Every mutation and snapshot takes a per-metric lock, so a registry can be
written by several threads (each calls ``obs.install``) and snapshotted
mid-run without torn reads.  The locks are uncontended in
single-threaded runs and hot loops batch their tallies, so the enabled
path stays within the observability overhead budget.
"""

from __future__ import annotations

import math
import random
import re
import threading
from typing import Iterator

#: Dotted metric names: segments of letters/digits/underscores/dashes.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*$")

#: Histogram reservoir size.  Exact quantiles up to this many samples.
RESERVOIR_SIZE = 8192

#: The quantiles :meth:`Histogram.snapshot` reports.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def check_name(name: str) -> str:
    """Validate a dotted metric name; returns it unchanged."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: want dotted segments like "
            f"'astar.expanded'"
        )
    return name


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative inc {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value, with the running peak."""

    kind = "gauge"
    __slots__ = ("name", "value", "peak", "_set", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = float("-inf")
        self._set = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.peak = value if not self._set else max(self.peak, value)
            self.value = value
            self._set = True

    def set_max(self, value: float) -> None:
        """Keep the maximum of all reported values (peak tracking)."""
        value = float(value)
        if not self._set or value > self.value:
            self.set(value)

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value if self._set else None,
            "peak": self.peak if self._set else None,
        }


class Histogram:
    """Value distribution with exact count/total and sampled quantiles."""

    kind = "histogram"
    __slots__ = (
        "name", "count", "total", "min", "max",
        "_reservoir", "_rng", "_lock",
    )

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        self._rng = random.Random(0xC0FFEE)  # deterministic sampling
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._reservoir) < RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:
                # Vitter's algorithm R: keep each sample with prob size/count.
                j = self._rng.randrange(self.count)
                if j < RESERVOIR_SIZE:
                    self._reservoir[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the (possibly sampled) values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            ordered = sorted(self._reservoir)
        if not ordered:
            return 0.0
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        if not self.count:
            return {"type": "histogram", "count": 0}
        out = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """Name-addressed store of metrics, the per-:class:`Recorder` root."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            check_name(name)
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory(name)
                    self._metrics[name] = metric
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {factory.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """Look up a metric without creating it."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Sorted metric names."""
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-serializable state of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def summary_table(self) -> str:
        """Fixed-width human-readable table of every metric."""
        header = (
            f"{'metric':<44s} {'type':<9s} {'count':>8s} {'value':>12s} "
            f"{'p50':>10s} {'p95':>10s} {'max':>10s}"
        )
        lines = [header, "-" * len(header)]
        for metric in self:
            if isinstance(metric, Counter):
                lines.append(
                    f"{metric.name:<44s} {'counter':<9s} {'':>8s} "
                    f"{metric.value:>12d} {'':>10s} {'':>10s} {'':>10s}"
                )
            elif isinstance(metric, Gauge):
                value = "-" if not metric._set else f"{metric.value:.3f}"
                peak = "-" if not metric._set else f"{metric.peak:.3f}"
                lines.append(
                    f"{metric.name:<44s} {'gauge':<9s} {'':>8s} {value:>12s} "
                    f"{'':>10s} {'':>10s} {peak:>10s}"
                )
            else:
                if metric.count:
                    p50, p95 = metric.quantile(0.5), metric.quantile(0.95)
                    lines.append(
                        f"{metric.name:<44s} {'histogram':<9s} "
                        f"{metric.count:>8d} {metric.mean:>12.3f} "
                        f"{p50:>10.3f} {p95:>10.3f} {metric.max:>10.3f}"
                    )
                else:
                    lines.append(
                        f"{metric.name:<44s} {'histogram':<9s} {0:>8d} "
                        f"{'-':>12s} {'-':>10s} {'-':>10s} {'-':>10s}"
                    )
        return "\n".join(lines)
