"""A fixed reference kernel: the yardstick every timing is divided by.

This host's effective speed drifts.  The same deterministic maintenance
trace ran in 1.27 s and, half an hour later, in 2.0-3.0 s; calm and disturbed
phases alternate every few minutes; in a disturbed phase 10-second medians of
a fixed A* plan spread 21% (inter-quartile / median), of a fixed batch of
updates 18%, and even the fastest of a hundred tries of a 50 ms query sits
15-55% above its calm time.  The drift is multiplicative and lasts longer
than a run, so neither medians nor minima over a run's 20-odd seconds remove
it.  A reference kernel sampled beside the measured code does most of it.

The kernel is code of the benchmark, not of the program under test, so no
change under ``src/`` can move it.  One sample walks a window of a table
larger than the caches in a scattered order (dict probe and float accumulate
per row: what the engine's scans and probes do) and then spins on integer
arithmetic (what the planner does).  It allocates almost nothing, so it does
not shift the collector's schedule inside the timed region.

The program under test reacts more strongly to a disturbed host than this
kernel does.  Over 100 runs of the five workloads (two sessions of 10 runs
each, kernel slowdown 0.97-1.46) the measured wall grew as the kernel's
slowdown to the power 1.7-2.4 (per workload and session: 1.76, 1.78, 1.83,
2.01, 2.07; 1.69, 1.81, 2.17, 2.19, 2.40), residual 3-7%.  ``slowdown()``
therefore squares the kernel's ratio.  In the second session the run-to-run
spread (inter-quartile / median of ten runs) of the timed wall was 35-52% as
measured and 7-13% after the division.
"""

from __future__ import annotations

import time

#: Median wall of one sample in a calm phase of the host that defined the
#: benchmark (2-core Xeon 2.1 GHz VM, CPython 3.11).  Timings are reported at
#: this speed: ``reported = measured / slowdown(sample beside it)``.
NOMINAL_S = 0.0060
#: See the module docstring: program slowdown = kernel slowdown ** this.
SENSITIVITY = 2.0


def slowdown(sample_s: float) -> float:
    """How much slower than nominal the program runs when one kernel sample
    takes ``sample_s``."""
    return (sample_s / NOMINAL_S) ** SENSITIVITY

_ROWS = 150_000
_WINDOW = 8_000
_SPIN = 20_000
_KEYS = 5_003


class Reference:
    """Owns the kernel's data; ``sample()`` runs it once and times it."""

    def __init__(self) -> None:
        self._table = [((i * 7919) % _KEYS, float(i % 1000)) for i in range(_ROWS)]
        # Visit rows in a scattered order: a sequential walk is prefetched
        # and misses the cache contention the engine's row stores see.
        self._order = [(i * 104_729) % _ROWS for i in range(_ROWS)]
        self._lookup = {k: k % 25 for k in range(_KEYS)}
        self._at = 0

    def sample(self) -> float:
        start = time.perf_counter()
        lo = self._at
        if lo + _WINDOW > _ROWS:
            lo = 0
        self._at = lo + _WINDOW
        lookup = self._lookup
        groups = dict.fromkeys(range(25), 0.0)
        table = self._table
        for j in self._order[lo:lo + _WINDOW]:
            key, value = table[j]
            if value > 100.0:
                groups[lookup[key]] += value
        acc = 0
        for i in range(_SPIN):
            acc += i * i % 7
        return time.perf_counter() - start
