"""Pipelines of maintenance operators with per-stage batch costs.

A :class:`Pipeline` is a linear chain of :class:`Stage` objects -- the
operator sequence of one delta table's maintenance query, e.g.::

    dPS --[probe Supplier index]--> --[filter region]--> --[fold into MIN]-->

Tuples pending *in front of* stage ``j`` are counted by ``state[j]``; to
reach the view they must flow through stages ``j, j+1, ..., m-1``, each
stage ``l`` charging its cost function ``g_l`` on its input batch and
multiplying cardinality by its fan-out.  The cost of bringing the view
fully up to date from a given state -- the quantity the response-time
constraint bounds -- is :meth:`Pipeline.flush_cost`.

**Fluid approximation.** Queue lengths are *expected* cardinalities and
therefore floats: a selective stage with fan-out 0.2 fed 2 tuples emits
0.4 expected tuples downstream.  Rounding to integers would make small
batches vanish through selective stages (conservation violation) and
silently zero the cost of eager propagation; the fluid model keeps both
cost accounting and backlog tracking faithful in expectation, which is
the granularity the scheduling analysis works at anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.costfuncs import CostFunction


@dataclass(frozen=True)
class Stage:
    """One operator of a maintenance pipeline.

    Parameters
    ----------
    name:
        Label for reports ("probe supplier idx", "scan partsupp", ...).
    cost:
        ``g(k)``: the cost of pushing a batch of ``k`` input tuples
        through this operator.  Monotone and subadditive, like every cost
        function in the paper's framework.
    fanout:
        Expected output tuples per input tuple (join selectivity times
        join degree).  0.5 for a selective filter, 80.0 for a key
        exploding into its 80 joining partners.
    """

    name: str
    cost: CostFunction
    fanout: float = 1.0

    def __post_init__(self) -> None:
        if self.fanout < 0:
            raise ValueError(f"fanout must be >= 0, got {self.fanout}")

    def output_size(self, k: float) -> float:
        """Expected output cardinality for ``k`` (expected) inputs."""
        return k * self.fanout


class Pipeline:
    """A linear operator chain with inter-stage queues.

    A state is an ``m``-vector of expected queue lengths (floats; see the
    module docstring): ``state[j]`` tuples queued in front of stage ``j``.
    Stage 0's queue is where new base-table modifications land.
    """

    def __init__(self, stages: Sequence[Stage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages: tuple[Stage, ...] = tuple(stages)

    @property
    def depth(self) -> int:
        """Number of stages ``m``."""
        return len(self.stages)

    def zero_state(self) -> tuple[float, ...]:
        """The all-empty queue state."""
        return (0.0,) * self.depth

    def flush_cost(self, state: Sequence[int]) -> float:
        """Cost of pushing every queued tuple through to the view: the
        cost of :meth:`propagate` through every stage."""
        return self.propagate(state, self.depth)[1]

    def propagate(
        self, state: Sequence[int], through: int
    ) -> tuple[tuple[float, ...], float]:
        """Flush queues ``0..through-1`` through their stages; returns
        ``(new_state, cost)``.

        Cascades: stage ``j`` processes its own queue plus whatever the
        upstream flush just delivered, in one combined batch (subadditivity
        makes combining optimal for a single flush).  Below ``depth`` this
        is a *partial* propagation: outputs of stage ``through - 1`` land
        in queue ``through`` instead of reaching the view.
        """
        self._check_state(state)
        if not 0 <= through <= self.depth:
            raise ValueError(
                f"through={through} outside [0, {self.depth}]"
            )
        new_state = [float(x) for x in state]
        total = 0.0
        carry = 0.0
        for j in range(through):
            batch = new_state[j] + carry
            new_state[j] = 0.0
            if batch:
                total += self.stages[j].cost(batch)
                carry = self.stages[j].output_size(batch)
            else:
                carry = 0.0
        if through < self.depth:
            new_state[through] += carry
        return tuple(new_state), total

    def _check_state(self, state: Sequence[int]) -> None:
        if len(state) != self.depth:
            raise ValueError(
                f"state has {len(state)} queues, pipeline has {self.depth}"
            )
        if any(x < 0 for x in state):
            raise ValueError(f"negative queue length in {tuple(state)}")

    def __repr__(self) -> str:
        chain = " -> ".join(s.name for s in self.stages)
        return f"Pipeline({chain})"
