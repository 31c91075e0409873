"""Simulation of staged maintenance over an arrival sequence.

Mirrors :func:`repro.core.simulator.simulate_policy` for pipelines: new
modifications land in queue 0 each step, the policy picks a propagation
depth, the constraint is enforced on every post-action state, and the
horizon ends with a forced full flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.policies import PolicyError
from repro.staged.model import Pipeline
from repro.staged.policies import StagedPolicy

_EPS = 1e-9


@dataclass
class StagedTrace:
    """Execution record of one staged-maintenance run."""

    total_cost: float
    action_costs: tuple[float, ...]
    depths: tuple[int, ...]
    states: tuple[tuple[int, ...], ...]  # post-action states
    peak_flush_cost: float

    @property
    def horizon(self) -> int:
        """The refresh time covered."""
        return len(self.depths) - 1


def simulate_staged(
    pipeline: Pipeline,
    limit: float,
    arrivals: Sequence[int],
    policy: StagedPolicy,
) -> StagedTrace:
    """Run ``policy`` over the arrival sequence; view refreshed at the end.

    ``arrivals[t]`` modifications enter queue 0 at step ``t``.  Raises
    :class:`~repro.core.policies.PolicyError` when a post-action state's
    flush cost exceeds ``limit`` before the horizon.
    """
    if not arrivals:
        raise ValueError("arrival sequence must cover at least one step")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    policy.reset(pipeline, limit)
    state = pipeline.zero_state()
    horizon = len(arrivals) - 1
    action_costs: list[float] = []
    depths: list[int] = []
    states: list[tuple[int, ...]] = []
    total = 0.0
    peak = 0.0
    for t, arriving in enumerate(arrivals):
        if arriving < 0:
            raise ValueError(f"negative arrivals at t={t}")
        entry = list(state)
        entry[0] += int(arriving)
        pre = tuple(entry)
        if t == horizon:
            depth = pipeline.depth  # forced refresh
        else:
            depth = int(policy.decide(t, pre))
            if not 0 <= depth <= pipeline.depth:
                raise PolicyError(
                    f"{policy!r} at t={t}: depth {depth} outside "
                    f"[0, {pipeline.depth}]"
                )
        state, cost = pipeline.propagate(pre, depth)
        if t < horizon and pipeline.flush_cost(state) > limit + _EPS:
            raise PolicyError(
                f"{policy!r} at t={t}: post-action state {state} not "
                f"refreshable within C={limit}"
            )
        total += cost
        action_costs.append(cost)
        depths.append(depth)
        states.append(state)
        peak = max(peak, pipeline.flush_cost(state))
    return StagedTrace(
        total_cost=total,
        action_costs=tuple(action_costs),
        depths=tuple(depths),
        states=tuple(states),
        peak_flush_cost=peak,
    )
