"""Modification arrival sequences (Section 5 of the paper).

Three workload families from the paper plus one extension:

* :func:`uniform_arrivals` -- a constant number of modifications per table
  per step (Figure 6's "one PartSupp update and one Supplier update arrive
  at every time step", generalized to arbitrary per-table rates);
* :func:`stochastic_arrivals` -- the paper's non-uniform model (Figure 7):
  at each step, with probability ``p`` at least one modification arrives;
  the count ``d > 0`` is distributed as ``ceil(X) | X > 0`` for
  ``X ~ Normal(mu, sigma^2)``.  ``p`` controls rate (slow/fast), ``sigma``
  stability (stable/unstable);
* :func:`periodic_arrivals` -- repeats a base pattern (the assumption under
  which ADAPT's ``T > T_0`` bound holds);
* :func:`bursty_arrivals` -- an extension for stress-testing ONLINE's
  rate estimator beyond the paper's streams.

All generators return a list of per-step n-vectors consumable by
:class:`repro.core.problem.ProblemInstance` and are deterministic given a
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class StreamParams:
    """Parameters of the paper's stochastic stream model for one table."""

    p: float = 0.5  # probability that any modifications arrive in a step
    mu: float = 1.0  # mean of the underlying normal
    sigma: float = 1.0  # std-dev of the underlying normal (instability)

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


# The paper's four Figure-7 stream classes: slow/fast x stable/unstable.
SLOW_STABLE = StreamParams(p=0.5, mu=1.0, sigma=1.0)
SLOW_UNSTABLE = StreamParams(p=0.5, mu=1.0, sigma=5.0)
FAST_STABLE = StreamParams(p=0.9, mu=1.0, sigma=1.0)
FAST_UNSTABLE = StreamParams(p=0.9, mu=1.0, sigma=5.0)


def uniform_arrivals(
    rates: Sequence[int], steps: int
) -> list[tuple[int, ...]]:
    """``rates[i]`` modifications to table ``i`` at every time step."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if any(r < 0 for r in rates):
        raise ValueError(f"rates must be non-negative, got {rates}")
    row = tuple(int(r) for r in rates)
    return [row] * steps


def stochastic_arrivals(
    params: Sequence[StreamParams],
    steps: int,
    seed: int = 0,
    scale: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """The paper's truncated-normal stream model, one stream per table.

    ``scale`` optionally multiplies each table's drawn counts (used to
    apply the PartSupp:Supplier arrival mix while keeping the *pattern*
    parameters exactly as in the paper).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = random.Random(seed)
    factors = tuple(scale) if scale is not None else (1,) * len(params)
    if len(factors) != len(params):
        raise ValueError("scale must have one factor per stream")
    out: list[tuple[int, ...]] = []
    for __ in range(steps):
        row = []
        for sp, factor in zip(params, factors):
            row.append(_draw_count(rng, sp) * factor)
        out.append(tuple(row))
    return out


def _draw_count(rng: random.Random, sp: StreamParams) -> int:
    """One step's count under the paper's model: 0 w.p. ``1 - p``, else
    ``ceil(X)`` for ``X ~ N(mu, sigma^2)`` conditioned on ``X > 0``."""
    if rng.random() >= sp.p:
        return 0
    if sp.sigma == 0:
        return max(1, math.ceil(sp.mu))
    # Rejection-sample the conditioned normal; the acceptance probability
    # is P(X > 0) which is >= ~2% for any mu >= -2 sigma, so this is cheap
    # for the paper's parameter ranges.
    for __ in range(10_000):
        x = rng.gauss(sp.mu, sp.sigma)
        if x > 0:
            return math.ceil(x)
    raise RuntimeError(
        f"could not sample X > 0 from N({sp.mu}, {sp.sigma}^2); "
        f"parameters are degenerate"
    )


def periodic_arrivals(
    pattern: Sequence[Sequence[int]], steps: int
) -> list[tuple[int, ...]]:
    """Repeat ``pattern`` cyclically for ``steps`` steps."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rows = [tuple(int(x) for x in row) for row in pattern]
    return [rows[t % len(rows)] for t in range(steps)]


def bursty_arrivals(
    base_rates: Sequence[int],
    steps: int,
    burst_every: int,
    burst_factor: int,
    seed: int = 0,
) -> list[tuple[int, ...]]:
    """Uniform arrivals with periodic multiplicative bursts (extension).

    Every ``burst_every`` steps (with +-20% jitter) one step carries
    ``burst_factor`` times the base rates -- the adversarial pattern for
    rate-estimating policies.
    """
    if burst_every < 1:
        raise ValueError(f"burst_every must be >= 1, got {burst_every}")
    if burst_factor < 1:
        raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
    rng = random.Random(seed)
    out = []
    next_burst = burst_every
    for t in range(steps):
        if t == next_burst:
            out.append(tuple(int(r) * burst_factor for r in base_rates))
            jitter = rng.randint(-burst_every // 5, burst_every // 5)
            next_burst = t + max(1, burst_every + jitter)
        else:
            out.append(tuple(int(r) for r in base_rates))
    return out
