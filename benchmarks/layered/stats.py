"""Small pure helpers shared by the runner, the report and compare.py."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def same(a, b) -> bool:
    """Equal; floats to rel 1e-9 (a sum of simulated costs is a float)."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def exact_mismatches(got: dict, want: dict) -> list[str]:
    """Names whose values differ; a name missing on one side differs."""
    return sorted(
        k for k in got.keys() | want.keys()
        if k not in got or k not in want or not same(got[k], want[k])
    )
