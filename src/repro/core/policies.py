"""Online maintenance policy protocol.

A *policy* decides, at each time step, how much of each delta table to
process -- without access to future arrivals.  This is the runtime contract
between the simulator (:mod:`repro.core.simulator`), the live view
maintainer (:mod:`repro.ivm.maintainer`), and the paper's strategies:

* :class:`~repro.core.naive.NaivePolicy` (symmetric baseline),
* :class:`~repro.core.adapt.AdaptPolicy` (precomputed plan, Section 4.2),
* :class:`~repro.core.online.OnlinePolicy` (heuristic, Section 4.3).

Policies are deliberately blinded: ``decide`` receives only the current
time, the current pre-action state, and the static problem parameters
(cost functions and constraint) bound at :meth:`Policy.reset`.  Anything a
policy wants to know about the arrival process it must learn through
:meth:`Policy.observe`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.costfuncs import CostFunction
from repro.core.problem import CostModel, Vector


class PolicyError(RuntimeError):
    """Raised when a policy emits an action that violates Definition 1."""


class Policy(CostModel, ABC):
    """Base class for online batch-maintenance scheduling policies.

    A policy *is* the :class:`~repro.core.problem.CostModel` it was last
    :meth:`reset` to: ``cost_functions``, ``limit``, ``n``,
    ``refresh_cost`` and ``is_full`` are available from then on.

    **Pure decisions.**  A class may set ``PURE_DECIDE = True`` in its
    own body.  That promises that its :meth:`decide` reads nothing but
    the model it was bound to and ``pre_state`` -- not ``t``, not
    anything :meth:`observe` or :meth:`record_action` saw -- and changes
    no state, so two instances bound to equal models decide equal
    states alike.  A multi-view round (:mod:`repro.ivm.multiview`) then
    asks one view per ``(model, policy class, pre)`` and hands every
    other view of that case the same action: those skip ``decide``,
    while ``observe`` and ``record_action`` stay each view's own.  The
    declaration is read from the class's own namespace
    (:func:`declares_pure_decide`) and is never inherited: a subclass
    that overrides ``decide`` -- to log, count or keep state -- has
    promised nothing, and is asked per view until it declares it too.
    The round asks every view itself while anyone observes decisions
    (:func:`repro.obs.decisions.active`), so each decision event stays
    one view's own.

    :class:`~repro.core.naive.NaivePolicy` declares it.  ONLINE, ADAPT,
    :class:`ReplayPolicy` and RECEDING do not: their ``decide`` reads
    ``t``, a plan, or estimator state fed by ``observe``.  Grouping
    ONLINE views by estimator state and running cost is open work.
    """

    #: See the class docstring; read only from a class's own body.
    PURE_DECIDE = False

    def __init__(self) -> None:
        """Policies are bound by :meth:`reset`, not at construction."""

    def reset(
        self,
        cost_functions: Sequence[CostFunction],
        limit: float,
    ) -> None:
        """Bind the policy to an instance's static parameters.

        Called once before the first time step and again whenever the view
        is refreshed and accounting restarts.  Subclasses overriding this
        must call ``super().reset(...)``.
        """
        CostModel.__init__(self, cost_functions, limit)

    def observe(self, t: int, arrivals: Vector) -> None:
        """Notify the policy of the modifications arriving at time ``t``.

        Called before :meth:`decide` at the same step.  Default: ignore.
        Policies that estimate arrival rates (ONLINE) override this.
        """

    @abstractmethod
    def decide(self, t: int, pre_state: Vector) -> Vector:
        """Return the action to take at time ``t`` given pre-state ``s_t``.

        Must return an n-vector ``p`` with ``0 <= p <= pre_state`` whose
        post-action state satisfies the response-time constraint.  Returning
        the zero vector is legal whenever ``pre_state`` is not full.
        """

    def record_action(self, t: int, action: Vector, cost: float) -> None:
        """Notify the policy its action was executed at cost ``cost``.

        The simulator calls this after applying each step's action
        (including the forced final refresh).  Default: ignore.  ONLINE
        uses it to maintain the running cost ``F_t``.
        """


def declares_pure_decide(cls: type) -> bool:
    """Whether ``cls`` itself -- not a base class -- sets
    ``PURE_DECIDE = True`` (see :class:`Policy`)."""
    return vars(cls).get("PURE_DECIDE", False) is True


class ReplayPolicy(Policy):
    """Replays a precomputed action sequence through the policy interface.

    Lets precomputed plans (OPT_LGM from the A* search) run on the same
    runtime as the online strategies -- in particular against the *live*
    view maintainer for the Figure 5 simulation-validation experiment.
    Actions are clamped to the available backlog, which is a no-op when the
    live arrivals match the arrivals the plan was computed for.
    """

    def __init__(self, actions):
        self.actions = [tuple(int(x) for x in a) for a in actions]

    def decide(self, t: int, pre_state: Vector) -> Vector:
        if not 0 <= t < len(self.actions):
            raise PolicyError(
                f"ReplayPolicy has no action for t={t} "
                f"(plan covers 0..{len(self.actions) - 1})"
            )
        scheduled = self.actions[t]
        return tuple(min(p, s) for p, s in zip(scheduled, pre_state))

    def __repr__(self) -> str:
        return f"ReplayPolicy(T={len(self.actions) - 1})"
