"""The batch view-maintenance problem instance (Section 2 of the paper).

A :class:`ProblemInstance` bundles everything Section 2's problem statement
fixes in advance:

* ``n`` base tables with cost functions ``f_1..f_n``,
* a modification arrival sequence ``d_0..d_T`` (one n-vector per discrete
  time step; component ``i`` counts modifications to base table ``R_i``
  arriving at that step),
* the response-time constraint ``C``.

States and actions are plain tuples of non-negative ints, indexed by base
table.  The *pre-action* state at time ``t`` is the delta-table sizes after
the arrivals ``d_t`` land; the *post-action* state subtracts the action
taken at ``t``.  A state is **full** when its refresh cost exceeds ``C``.
"""

from __future__ import annotations

from itertools import chain
from operator import add, sub, truediv
from typing import Sequence

from repro.core.costfuncs import CostFunction

Vector = tuple[int, ...]


def zero_vector(n: int) -> Vector:
    """The all-zeros n-vector."""
    return (0,) * n


def add_vectors(a: Vector, b: Vector) -> Vector:
    """Componentwise sum of two n-vectors; ``ValueError`` on a length
    mismatch, as ``zip(strict=True)`` raises."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {a} + {b}")
    return tuple(map(add, a, b))


def sub_vectors(a: Vector, b: Vector) -> Vector:
    """Componentwise difference ``a - b`` of two n-vectors; ``ValueError``
    on a length mismatch."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {a} - {b}")
    return tuple(map(sub, a, b))


def is_nonnegative(v: Vector) -> bool:
    """True when every component of ``v`` is >= 0; true for ``()``."""
    return min(v, default=0) >= 0


def int_vector(raw: Sequence[int], what: str, t: int) -> Vector:
    """``raw`` as a tuple of ints, in one C-level pass.

    Integral floats (``3.0``) and bools convert; a fractional count is a
    ``ValueError`` naming ``what``, ``t`` and the vector, never floored.
    """
    raw = tuple(raw)
    v = tuple(map(int, raw))
    if v != raw:
        raise ValueError(f"{what} at t={t} has non-integer components: {raw}")
    return v


def int_vectors(
    rows: Sequence[Sequence[int]], what: str, width: int | None = None
) -> tuple[Vector, ...]:
    """``rows`` (at least one) as equal-width vectors of non-negative ints,
    checked in one C-level pass over the whole sequence.

    ``width`` defaults to the first row's.  Only when that pass fails does
    the per-row check run, to raise what the first bad ``t`` breaks:
    :func:`int_vector`'s error, then a wrong width, then a negative count.
    """
    vectors = rows
    try:
        vectors = tuple(map(tuple, rows))
        flat = tuple(chain.from_iterable(vectors))
        ints = tuple(map(int, flat))
        n = len(vectors[0]) if width is None else width
        if (
            ints == flat
            and min(ints, default=0) >= 0
            and set(map(len, vectors)) == {n}
        ):
            return tuple(zip(*[iter(ints)] * n)) if n else vectors
    except (TypeError, ValueError, OverflowError):
        pass
    cleaned = []
    for t, raw in enumerate(vectors):
        v = int_vector(raw, what, t)
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValueError(
                f"{what} at t={t} has {len(v)} components, expected {width}"
            )
        if not is_nonnegative(v):
            raise ValueError(f"{what} at t={t} has negative components")
        cleaned.append(v)
    return tuple(cleaned)


class CostTable(dict):
    """``table[k] == f(k)``, computed on first use.

    Cost functions are pure, so a stored entry is the bit-identical float
    the call would have produced; tabulated functions pay a bisect per
    call, a hit pays one dict probe.
    """

    __slots__ = ("f",)

    def __init__(self, f: CostFunction):
        self.f = f

    def __missing__(self, k: int) -> float:
        cost = self[k] = self.f(k)
        return cost


class CostModel:
    """The static half of an instance: ``f_1..f_n`` and the constraint ``C``.

    The one definition of ``f(s)``, of fullness and of a legal action
    (:meth:`check_action`), shared by :class:`ProblemInstance`, the live
    :class:`~repro.ivm.maintainer.ViewMaintainer` and (bound at ``reset``)
    every :class:`~repro.core.policies.Policy`; it knows nothing of arrivals, so
    handing a policy to the action enumerator keeps the policy blind to
    the future.

    Every ``f_i(k)`` ever priced is kept in ``cost_tables`` for as long as
    the model lives -- an instance's lifetime, or a policy's until its next
    ``reset`` -- which assumes the cost functions are pure and are not
    mutated once bound.  A table holds one float per distinct batch size
    seen: at most ``b_i`` entries per table after
    :meth:`ProblemInstance.min_batch_rates` (capped at 65536), and for a
    long-running policy the distinct backlog sizes its view reaches plus
    ONLINE's TimeToFull probes.  Both stay bounded: the constraint ``C``
    keeps a backlog near ``b_i``, and TimeToFull's galloping stops at the
    first projected state over ``C``, so no probe prices a batch much
    beyond ``2 b_i`` plus the backlog it starts from.
    """

    def __init__(self, cost_functions: Sequence[CostFunction], limit: float):
        self.cost_functions: tuple[CostFunction, ...] = tuple(cost_functions)
        self.limit = float(limit)
        #: A state is full when its refresh cost exceeds this: ``C`` plus
        #: the tolerance that absorbs float noise in summed costs.
        self.full_above = self.limit + 1e-9
        self.n = len(self.cost_functions)
        #: ``cost_tables[i][k] == f_i(k)``; the planners' hot loops probe
        #: these directly instead of calling :meth:`refresh_cost`.
        self.cost_tables: tuple[CostTable, ...] = tuple(
            CostTable(f) for f in self.cost_functions
        )

    def refresh_cost(self, state: Vector) -> float:
        """``f(s) = sum_i f_i(s[i])`` -- cost of refreshing the view now.

        Summed left to right with plain additions: ``sum()`` compensates
        float sums on CPython >= 3.12, and heap order in the A* search
        depends on the last bit.
        """
        total = 0
        for table, k in zip(self.cost_tables, state, strict=True):
            total = total + table[k]
        return total

    def is_full(self, state: Vector) -> bool:
        """True when the refresh cost of ``state`` exceeds the constraint."""
        return self.refresh_cost(state) > self.full_above

    def check_action(
        self, pre: Vector, action: Vector, forced: bool = False
    ) -> tuple[Vector, float]:
        """Definition 1 for one step; returns ``(post, f(post))``.

        Componentwise ``0 <= action <= pre`` and, unless the refresh is
        ``forced``, a post-action state that is not full.  Raises
        ``ValueError`` naming the violation.  The one place the rule is
        decided: plans, the simulator and the live maintainer all ask a
        model here, and never the policy whose action is being checked.
        """
        try:
            post = tuple(map(sub, pre, action))
            legal = (
                len(pre) == len(action)
                and min(action, default=0) >= 0
                and min(post, default=0) >= 0
            )
        except TypeError:
            legal = False
        if not legal:
            # Component by component, to name the first violation.
            for k, pending in zip(action, pre, strict=True):
                if k < 0:
                    raise ValueError(
                        f"action {action} has negative components"
                    )
                if k > pending:
                    raise ValueError(f"action {action} exceeds backlog {pre}")
            post = sub_vectors(pre, action)
        cost = self.refresh_cost(post)
        if not forced and cost > self.full_above:
            raise ValueError(
                f"post-action state {post} violates C={self.limit:.4g} "
                f"(refresh cost {cost:.4g})"
            )
        return post, cost


class ProblemInstance(CostModel):
    """An instance of the batch incremental maintenance problem.

    Parameters
    ----------
    cost_functions:
        One monotone subadditive :class:`CostFunction` per base table.
    limit:
        The response-time constraint ``C >= 0``: every post-action state
        must have refresh cost at most ``C``.
    arrivals:
        The modification arrival sequence ``d_0 .. d_T``.  Length ``T + 1``
        where ``T`` is the refresh time.  Each element is an n-vector of
        non-negative modification counts.

    Notes
    -----
    The instance is immutable; planners treat it as a value.  ``n`` is the
    number of base tables and ``horizon`` the refresh time ``T`` (arrivals
    cover ``0..T``).  All heavy per-instance precomputation (cumulative
    and suffix arrival totals, the A* heuristic's per-table batch bounds)
    is cached lazily.
    """

    def __init__(
        self,
        cost_functions: Sequence[CostFunction],
        limit: float,
        arrivals: Sequence[Sequence[int]],
    ):
        if not cost_functions:
            raise ValueError("need at least one base table")
        if limit < 0:
            raise ValueError(f"response-time constraint must be >= 0, got {limit}")
        if not arrivals:
            raise ValueError("arrival sequence must cover at least time step 0")
        super().__init__(cost_functions, limit)
        self.arrivals: tuple[Vector, ...] = int_vectors(
            arrivals, "arrival vector", self.n
        )
        self.horizon = len(self.arrivals) - 1
        self._suffix_totals: list[Vector] | None = None
        self._prefix_totals: list[Vector] | None = None
        self._batch_bounds: Vector | None = None
        self._min_rates: tuple[float, ...] | None = None

    def total_arrivals(self) -> Vector:
        """Total modifications per table over the whole period."""
        total = zero_vector(self.n)
        for d in self.arrivals:
            total = add_vectors(total, d)
        return total

    # ------------------------------------------------------------------
    # Derived arrival statistics
    # ------------------------------------------------------------------

    def suffix_totals(self) -> list[Vector]:
        """``suffix_totals()[t][i]`` = modifications to R_i arriving in (t, T].

        Used by the A* heuristic: ``K_i`` for a node with timestamp ``t`` is
        exactly ``suffix_totals()[t][i]``.  Index ``t`` ranges over ``-1..T``
        (shifted by one: entry 0 corresponds to ``t = -1``), but to keep
        call sites simple the returned list has ``T + 2`` entries and is
        indexed via :meth:`future_arrivals`.
        """
        if self._suffix_totals is None:
            totals: list[Vector] = [zero_vector(self.n)] * (self.horizon + 2)
            acc = zero_vector(self.n)
            for t in range(self.horizon, -1, -1):
                acc = add_vectors(acc, self.arrivals[t])
                totals[t] = acc
            totals[self.horizon + 1] = zero_vector(self.n)
            self._suffix_totals = totals
        return self._suffix_totals

    def prefix_totals(self) -> list[Vector]:
        """``prefix_totals()[t + 1][i]`` = modifications to R_i in ``[0, t]``.

        Entry 0 is the zero vector (nothing has arrived before time 0), so
        the arrivals in the half-open window ``(t1, t2]`` are exactly
        ``prefix_totals()[t2 + 1] - prefix_totals()[t1 + 1]`` -- all integer
        arithmetic, hence exact.  This is what lets the A* expansion locate
        the first full time step by binary search instead of re-summing
        arrivals along every edge.
        """
        if self._prefix_totals is None:
            totals = [zero_vector(self.n)]
            acc = totals[0]
            for d in self.arrivals:
                acc = add_vectors(acc, d)
                totals.append(acc)
            self._prefix_totals = totals
        return self._prefix_totals

    def future_arrivals(self, t: int) -> Vector:
        """Total modifications per table arriving strictly after time ``t``."""
        idx = t + 1
        if idx < 0:
            idx = 0
        if idx > self.horizon + 1:
            idx = self.horizon + 1
        return self.suffix_totals()[idx]

    def max_step_arrival(self, i: int) -> int:
        """``m_i``: the largest single-step arrival count for table ``i``."""
        return max((d[i] for d in self.arrivals), default=0)

    def batch_bounds(self) -> Vector:
        """``b_i = m_i + max{b : f_i(b) <= C}`` per table (A* heuristic).

        ``b_i`` bounds the number of ``R_i`` modifications one action can
        ever need to process: a lazy plan acts as soon as the state is full,
        so the backlog at action time is at most one constraint-sized batch
        plus the single largest arrival burst.
        """
        if self._batch_bounds is None:
            bounds = []
            for i, f in enumerate(self.cost_functions):
                base = f.batch_limit(self.limit)
                bounds.append(max(1, self.max_step_arrival(i) + base))
            self._batch_bounds = tuple(bounds)
        return self._batch_bounds

    def min_batch_rates(self) -> tuple[float, ...]:
        """Per-table ``min_{1 <= k <= b_i} f_i(k) / k``: the cheapest
        possible per-modification processing rate any legal batch achieves.

        Used by the A* heuristic's consistent lower bound: any plan pays at
        least this rate for every remaining modification, and the bound
        decreases by exactly ``rate * q_i <= f_i(q_i)`` across an action,
        which is what makes the heuristic consistent (see
        :mod:`repro.core.astar` for why the paper's floor-based estimate is
        not).  Exact up to batch sizes of 65536, each ``f_i(k)`` priced by
        :meth:`~repro.core.costfuncs.CostFunction.prices`; beyond that the
        rate is 0 (no guidance from that table).
        """
        if self._min_rates is None:
            rates = []
            for table, b in zip(self.cost_tables, self.batch_bounds()):
                if b <= 65536:
                    # Every legal batch size is priced here, so the pass
                    # also leaves the table warm: the search's probes of
                    # f_i(k), k <= b_i, are all hits.
                    sizes = range(1, b + 1)
                    costs = table.f.prices(b)
                    table.update(zip(sizes, costs))
                    rate = min(map(truediv, costs, sizes))
                else:
                    # The exact minimum could hide between samples; a too-
                    # high rate would make the heuristic inadmissible, so
                    # degrade to no guidance (h = 0) for this table.
                    rate = 0.0
                rates.append(rate)
            self._min_rates = tuple(rates)
        return self._min_rates

    # ------------------------------------------------------------------
    # Instance surgery (used by ADAPT and the experiment drivers)
    # ------------------------------------------------------------------

    def truncated(self, new_horizon: int) -> "ProblemInstance":
        """The same instance with the arrival sequence cut at ``new_horizon``."""
        if not 0 <= new_horizon <= self.horizon:
            raise ValueError(
                f"new horizon {new_horizon} outside [0, {self.horizon}]"
            )
        return ProblemInstance(
            self.cost_functions, self.limit, self.arrivals[: new_horizon + 1]
        )

    def extended_periodic(self, new_horizon: int) -> "ProblemInstance":
        """Extend the arrival sequence periodically up to ``new_horizon``.

        Section 4.2 analyses ADAPT for ``T > T_0`` under the assumption that
        the arrival sequence is periodic with period ``T_0``; this helper
        materializes that assumption.
        """
        if new_horizon < self.horizon:
            raise ValueError("use truncated() to shrink the horizon")
        period = len(self.arrivals)
        arrivals = [self.arrivals[t % period] for t in range(new_horizon + 1)]
        return ProblemInstance(self.cost_functions, self.limit, arrivals)

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.n}, T={self.horizon}, C={self.limit}, "
            f"total={self.total_arrivals()})"
        )
