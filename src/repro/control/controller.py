"""The controller: wires governors to a live coordinator and ticks them.

Usage sketch::

    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(...)
    controller = build_controller(coordinator)
    with controller:                       # attach alert subscriptions
        for t, arrivals in enumerate(stream):
            apply(arrivals)
            coordinator.step(t)
            controller.tick(t)             # read signals, maybe actuate

Alert-hub callbacks (SLO pressure, calibration drift) buffer evidence
inline during the round; all actuation happens in :meth:`Controller.tick`
*between* rounds, so a policy never changes under an executing query.
Detaching (context-manager exit) removes every subscription, leaving the
process-global hubs as they were.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.control.governors import Governor, PolicyGovernor

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.ivm.multiview import MaintenanceCoordinator


class Controller:
    """Owns a set of governors; attach/detach around a run, tick between
    rounds.  Disabled governors are never attached and never ticked, so
    a controller whose governors are all disabled is behaviorally
    identical to no controller at all (differentially tested)."""

    def __init__(self, governors: Sequence[Governor]):
        self.governors = tuple(governors)
        self._attached = False

    def governor(self, name: str) -> Governor:
        """Look up a governor by its ``name`` attribute."""
        for governor in self.governors:
            if governor.name == name:
                return governor
        raise KeyError(f"no governor {name!r}")

    def attach(self) -> "Controller":
        """Subscribe enabled governors to their alert hubs (idempotent)."""
        if not self._attached:
            for governor in self.governors:
                if governor.enabled:
                    governor.attach()
            self._attached = True
        return self

    def detach(self) -> None:
        """Remove every subscription (idempotent, safe if never attached)."""
        if self._attached:
            for governor in self.governors:
                governor.detach()
            self._attached = False

    def tick(self, t: int) -> None:
        """One control interval: let each enabled governor read its
        signals and actuate.  Call between maintenance rounds."""
        for governor in self.governors:
            if governor.enabled:
                governor.tick(t)

    def __enter__(self) -> "Controller":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{g.name}={'on' if g.enabled else 'off'}" for g in self.governors
        )
        return f"Controller({parts})"


def build_controller(
    coordinator: "MaintenanceCoordinator",
    policy: bool = True,
    policy_options: dict | None = None,
) -> Controller:
    """A controller with the policy governor over one coordinator.

    ``policy=False`` leaves the governor constructed but inert (the
    disabled-equals-absent equivalence test builds it that way);
    ``policy_options`` passes tuning keywords through to its constructor.
    """
    governor = PolicyGovernor(
        coordinator, enabled=policy, **(policy_options or {})
    )
    return Controller((governor,))
