"""Batch maintenance cost functions (Section 2 of the paper).

The paper models the cost of processing ``k`` batched modifications from
delta table ``dR_i`` with a function ``f_i(k)`` that is:

* **monotone**: ``f(x) >= f(y)`` whenever ``x >= y >= 0``;
* **subadditive**: ``f(0) == 0`` and ``f(x + y) <= f(x) + f(y)``.

Subadditivity is what makes batching attractive: processing a combined batch
never costs more than processing its pieces separately.  Subadditivity does
*not* imply concavity -- the paper's own example is the block-I/O staircase
``ceil(x / B)``, which is reproduced here as :class:`BlockIOCost`.

This module provides the concrete cost families used throughout the
reproduction:

=====================  =========================================================
class                  role in the paper
=====================  =========================================================
:class:`LinearCost`    ``f(k) = a*k + b`` (Section 3.3); setup cost ``b`` plus
                       per-modification cost ``a``.  Theorem 2: with linear
                       costs the best LGM plan is globally optimal.
:class:`ConcaveCost`   ``f(k) = c * k**e`` with ``e <= 1``; a smooth concave
                       family for stress-testing beyond the paper.
:class:`BlockIOCost`   ``ceil(k / B) * io + a*k``; subadditive, non-concave.
:class:`StepCost`      the tightness construction of Section 3.2 that forces
                       ``OPT_LGM >= (2 - eps) * OPT``.
:class:`PiecewiseLinearCost`  general concave piecewise-linear envelopes.
:class:`TabulatedCost` costs measured from a live system (our engine), with
                       monotone linear interpolation -- how the paper's
                       "simulation" mode replays measured curves (Figure 5).
=====================  =========================================================

All functions map non-negative integer batch sizes to non-negative floats.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

#: The largest batch :meth:`CostFunction.batch_limit` reports: the cap that
#: makes an unbounded budget's search terminate.
MAX_BATCH = 1 << 24


class CostFunction(ABC):
    """A batch processing cost function ``f: Z+ -> R+``.

    Subclasses implement :meth:`cost`.  Instances are callable:
    ``f(k)`` is the cost of processing ``k`` modifications in one batch.

    The families of this module are equal **by value**: two functions of
    one family with equal parameters (:meth:`_value`) are equal, hash
    alike and price every batch with bit-identical floats, which is what
    lets views with equal cost functions share one
    :class:`~repro.core.problem.CostModel`.
    """

    @abstractmethod
    def cost(self, k: int) -> float:
        """Return the cost of processing a batch of ``k`` modifications."""

    def _value(self) -> tuple:
        """The parameters that determine ``f`` within its family.

        A family that does not say is equal only to itself.  A subclass
        is another family (its ``cost`` may differ), never equal to its
        parent; one that adds parameters extends this.
        """
        return (id(self),)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._value() == self._value()

    def __hash__(self) -> int:
        return hash((type(self), self._value()))

    def __call__(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"batch size must be non-negative, got {k}")
        if k == 0:
            return 0.0
        return self.cost(k)

    def prices(self, upto: int) -> list[float]:
        """``[f(1), ..., f(upto)]``: every batch size priced in one call.

        A family may fill the list in bulk, but each entry is the
        bit-identical float ``f(k)`` returns.
        """
        return list(map(self, range(1, upto + 1)))

    # ------------------------------------------------------------------
    # Property checks.  These are *empirical* checks over a sampled range,
    # used by :func:`check_cost_function`.
    # ------------------------------------------------------------------

    def is_monotone(self, upto: int) -> bool:
        """Check monotonicity on ``0..upto`` by exhaustive sampling."""
        prev = 0.0
        for k in range(upto + 1):
            cur = self(k)
            if cur < prev - 1e-9:
                return False
            prev = cur
        return True

    def is_subadditive(self, upto: int) -> bool:
        """Check ``f(x+y) <= f(x) + f(y)`` for all ``x + y <= upto``."""
        values = [self(k) for k in range(upto + 1)]
        for x in range(1, upto):
            for y in range(1, upto - x + 1):
                if values[x + y] > values[x] + values[y] + 1e-9:
                    return False
        return True

    def batch_limit(self, budget: float) -> int:
        """Return ``max {b : f(b) <= budget}`` (0 if even ``f(1) > budget``).

        Uses galloping + binary search, relying on monotonicity, up to
        :data:`MAX_BATCH` so that unbounded budgets terminate.
        """
        return max_batch_under(self, budget)


def max_batch_under(
    f: CostFunction, budget: float, hi: int = MAX_BATCH
) -> int:
    """Largest batch size whose one-shot processing cost fits in ``budget``.

    This is the quantity ``max {b | f_i(b) <= C}`` used by the A* heuristic
    (Section 4.1).  Monotonicity of ``f`` makes binary search correct.
    """
    if budget < 0:
        return 0
    if f(1) > budget:
        return 0
    # Gallop to bracket the answer, then binary search.
    lo, cur = 1, 2
    while cur <= hi and f(cur) <= budget:
        lo, cur = cur, cur * 2
    hi_bound = min(cur, hi)
    # Invariant: f(lo) <= budget < f(hi_bound + 1) (or hi cap reached).
    while lo < hi_bound:
        mid = (lo + hi_bound + 1) // 2
        if f(mid) <= budget:
            lo = mid
        else:
            hi_bound = mid - 1
    return lo


class LinearCost(CostFunction):
    """``f(k) = slope * k + setup`` for ``k >= 1``; ``f(0) = 0``.

    The paper's Section 3.3 model: ``setup`` covers parsing, optimization,
    hash-table builds or index loading; ``slope`` is the per-modification
    cost once set up.  Monotone and subadditive for ``slope > 0`` and
    ``setup >= 0``.
    """

    def __init__(self, slope: float, setup: float = 0.0):
        if slope < 0:
            raise ValueError(f"slope must be non-negative, got {slope}")
        if setup < 0:
            raise ValueError(f"setup must be non-negative, got {setup}")
        if slope == 0 and setup == 0:
            raise ValueError("degenerate all-zero cost function")
        self.slope = float(slope)
        self.setup = float(setup)

    def cost(self, k: int) -> float:
        return self.slope * k + self.setup

    def batch_limit(self, budget: float) -> int:
        if budget < self.setup + self.slope:
            return 0
        if self.slope == 0:
            return MAX_BATCH
        return min(MAX_BATCH, int((budget - self.setup) / self.slope + 1e-12))

    def _value(self) -> tuple:
        return (self.slope, self.setup)

    def __repr__(self) -> str:
        return f"LinearCost(slope={self.slope!r}, setup={self.setup!r})"


class ConcaveCost(CostFunction):
    """``f(k) = coeff * k ** exponent`` with ``0 < exponent <= 1``.

    Concave (hence subadditive) and monotone.  Not in the paper's
    experiments but useful for exercising the general theory: the paper's
    future-work section asks whether concavity tightens the LGM bound.
    """

    def __init__(self, coeff: float, exponent: float = 0.5):
        if coeff <= 0:
            raise ValueError(f"coeff must be positive, got {coeff}")
        if not 0 < exponent <= 1:
            raise ValueError(f"exponent must be in (0, 1], got {exponent}")
        self.coeff = float(coeff)
        self.exponent = float(exponent)

    def cost(self, k: int) -> float:
        return self.coeff * k**self.exponent

    def _value(self) -> tuple:
        return (self.coeff, self.exponent)

    def __repr__(self) -> str:
        return f"ConcaveCost(coeff={self.coeff!r}, exponent={self.exponent!r})"


class BlockIOCost(CostFunction):
    """Staircase I/O cost: ``f(k) = ceil(k / block_size) * io_cost + slope*k``.

    The paper's canonical subadditive-but-not-concave example: scanning a
    compactly stored table costs one I/O per block, so the cost jumps each
    time the batch spills into a new block.
    """

    def __init__(self, io_cost: float, block_size: int, slope: float = 0.0):
        if io_cost <= 0:
            raise ValueError(f"io_cost must be positive, got {io_cost}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if slope < 0:
            raise ValueError(f"slope must be non-negative, got {slope}")
        self.io_cost = float(io_cost)
        self.block_size = int(block_size)
        self.slope = float(slope)

    def cost(self, k: int) -> float:
        blocks = -(-k // self.block_size)  # ceil division
        return blocks * self.io_cost + self.slope * k

    def _value(self) -> tuple:
        return (self.io_cost, self.block_size, self.slope)

    def __repr__(self) -> str:
        return (
            f"BlockIOCost(io_cost={self.io_cost!r}, "
            f"block_size={self.block_size!r}, slope={self.slope!r})"
        )


class StepCost(CostFunction):
    """The tightness construction of Section 3.2.

    With response-time constraint ``C``::

        f(x) = (eps * x / 2) * C          for 0 <= x <= 2 / eps
        f(x) = (1 + eps / 2) * C          for x  > 2 / eps

    Monotone and subadditive.  Feeding ``2/eps + 1`` modifications per step
    forces every LGM plan to pay ``(1 + eps/2) * C`` per step while a
    non-greedy plan can amortize down to ``(1 + eps) * C`` per two steps,
    showing ``OPT_LGM >= (2 - eps) * OPT`` -- i.e. Theorem 1 is tight.
    """

    def __init__(self, eps: float, limit: float):
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if (1.0 / eps) != int(1.0 / eps):
            raise ValueError("1/eps must be an integer for the construction")
        self.eps = float(eps)
        self.limit = float(limit)
        self.knee = int(round(2 / eps))

    def cost(self, k: int) -> float:
        if k <= self.knee:
            return (self.eps * k / 2.0) * self.limit
        return (1.0 + self.eps / 2.0) * self.limit

    def _value(self) -> tuple:
        return (self.eps, self.limit)

    def __repr__(self) -> str:
        return f"StepCost(eps={self.eps!r}, limit={self.limit!r})"


class PiecewiseLinearCost(CostFunction):
    """Concave piecewise-linear cost given as ``(batch_size, cost)`` knots.

    Knots must start at ``(0, 0)``, be strictly increasing in batch size,
    non-decreasing in cost, and have non-increasing segment slopes (which
    guarantees concavity, hence subadditivity).  Beyond the last knot the
    final slope is extrapolated.
    """

    def __init__(self, knots: Sequence[tuple[int, float]]):
        knots = [(int(k), float(c)) for k, c in knots]
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        if knots[0] != (0, 0.0):
            raise ValueError(f"first knot must be (0, 0), got {knots[0]}")
        slopes = []
        for (k0, c0), (k1, c1) in zip(knots, knots[1:]):
            if k1 <= k0:
                raise ValueError("knot batch sizes must be strictly increasing")
            if c1 < c0:
                raise ValueError("knot costs must be non-decreasing")
            slopes.append((c1 - c0) / (k1 - k0))
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 > s0 + 1e-12:
                raise ValueError("segment slopes must be non-increasing (concave)")
        self.knots = knots
        self._keys = [k for k, __ in knots]
        self._final_slope = slopes[-1]

    def cost(self, k: int) -> float:
        last_k, last_c = self.knots[-1]
        if k >= last_k:
            return last_c + self._final_slope * (k - last_k)
        idx = bisect.bisect_right(self._keys, k) - 1
        k0, c0 = self.knots[idx]
        k1, c1 = self.knots[idx + 1]
        return c0 + (c1 - c0) * (k - k0) / (k1 - k0)

    def _value(self) -> tuple:
        return tuple(self.knots)

    def __repr__(self) -> str:
        return f"PiecewiseLinearCost({self.knots!r})"


class TabulatedCost(CostFunction):
    """Cost function interpolated from measured ``(batch_size, cost)`` samples.

    This is how the reproduction mirrors the paper's methodology: Figures 1
    and 4 *measure* maintenance cost curves on a live system, and Figures
    5-7 replay plans against those measured curves in a simulator.  Samples
    are sorted, then repaired to be monotone by taking a running maximum
    (measurement noise can produce tiny non-monotonicities, as the paper
    notes about its own curves).  Between samples we interpolate linearly;
    beyond the last sample we extrapolate with the tail slope.
    """

    def __init__(self, samples: Iterable[tuple[int, float]]):
        cleaned: dict[int, float] = {}
        for k, c in samples:
            k = int(k)
            if k < 0:
                raise ValueError(f"batch sizes must be non-negative, got {k}")
            if c < 0:
                raise ValueError(f"costs must be non-negative, got {c}")
            cleaned[k] = max(cleaned.get(k, 0.0), float(c))
        if not cleaned or set(cleaned) == {0}:
            raise ValueError("need at least one sample with batch size > 0")
        cleaned.setdefault(0, 0.0)
        points = sorted(cleaned.items())
        # Monotone repair: running maximum.
        repaired: list[tuple[int, float]] = []
        running = 0.0
        for k, c in points:
            running = max(running, c)
            repaired.append((k, running))
        self.samples = repaired
        self._keys = [k for k, __ in repaired]
        if len(repaired) >= 2:
            (k0, c0), (k1, c1) = repaired[-2], repaired[-1]
            self._tail_slope = (c1 - c0) / (k1 - k0)
        else:  # single non-zero sample: extrapolate proportionally
            k1, c1 = repaired[-1]
            self._tail_slope = c1 / k1

    def cost(self, k: int) -> float:
        last_k, last_c = self.samples[-1]
        if k >= last_k:
            return last_c + self._tail_slope * (k - last_k)
        idx = bisect.bisect_right(self._keys, k) - 1
        k0, c0 = self.samples[idx]
        k1, c1 = self.samples[idx + 1]
        return c0 + (c1 - c0) * (k - k0) / (k1 - k0)

    def prices(self, upto: int) -> list[float]:
        # One pass per segment instead of a bisect per k; each entry is
        # :meth:`cost`'s expression, evaluated in the same order.
        out: list[float] = []
        stop = upto + 1
        for (k0, c0), (k1, c1) in zip(self.samples, self.samples[1:]):
            if k0 >= stop:
                return out
            rise, run = c1 - c0, k1 - k0
            ks = range(max(k0, 1), min(k1, stop))
            out += [c0 + rise * (k - k0) / run for k in ks]
        last_k, last_c = self.samples[-1]
        tail = self._tail_slope
        ks = range(max(last_k, 1), stop)
        out += [last_c + tail * (k - last_k) for k in ks]
        return out

    def _value(self) -> tuple:
        return tuple(self.samples)

    def __repr__(self) -> str:
        head = self.samples[:3]
        return f"TabulatedCost({len(self.samples)} samples, head={head!r})"


def fit_linear(samples: Sequence[tuple[int, float]]) -> LinearCost:
    """Least-squares fit of a :class:`LinearCost` to measured samples.

    Zero-batch samples are excluded (``f(0) = 0`` by definition, but the
    affine model only applies to non-empty batches).  The fitted setup cost
    is clamped at zero, matching the model's ``b >= 0`` requirement; the
    slope is clamped at a tiny positive value so the result is a valid,
    strictly increasing cost function.
    """
    pts = [(float(k), float(c)) for k, c in samples if k > 0]
    if len(pts) < 2:
        raise ValueError("need at least two samples with batch size > 0")
    n = len(pts)
    sx = sum(k for k, __ in pts)
    sy = sum(c for __, c in pts)
    sxx = sum(k * k for k, __ in pts)
    sxy = sum(k * c for k, c in pts)
    denom = n * sxx - sx * sx
    if denom == 0:  # all samples at the same batch size
        slope = pts[0][1] / pts[0][0]
        return LinearCost(slope=max(slope, 1e-12), setup=0.0)
    slope = (n * sxy - sx * sy) / denom
    setup = (sy - slope * sx) / n
    if setup < 0:  # re-fit through the origin
        slope = sxy / sxx
        setup = 0.0
    return LinearCost(slope=max(slope, 1e-12), setup=max(setup, 0.0))


def check_cost_function(f: CostFunction, upto: int = 64) -> None:
    """Raise ``ValueError`` unless ``f`` is monotone and subadditive on a range.

    Lemma 1's precondition, checked empirically.  No product code calls
    it: the planners assume it of their input, and the tests check the
    cost families with it.
    """
    if f(0) != 0.0:
        raise ValueError(f"{f!r}: f(0) must be 0, got {f(0)}")
    if not f.is_monotone(upto):
        raise ValueError(f"{f!r} is not monotone on 0..{upto}")
    if not f.is_subadditive(upto):
        raise ValueError(f"{f!r} is not subadditive on 0..{upto}")
