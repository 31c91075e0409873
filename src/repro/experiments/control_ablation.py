"""Controller ablation harness: does the closed loop earn its keep?

One SLO-pressure workload (the paper view under a bursty 80:1 arrival
mix, constraint C sized so the ONLINE policy rides the near-breach
band), two runs:

* ``baseline`` -- no governor at all;
* ``full`` -- the policy governor on.

Both runs replay the identical modification stream (same seeds), so
differences in breaches and wall time are attributable to the
governor alone.

Breaches are counted from the view's ledger, each entry classified as
the governor classifies it (:func:`repro.ivm.governor.verdict`), so the
harness works identically standalone, under the benchmark recorder, and
in CI smoke runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.online import OnlinePolicy
from repro.experiments import common
from repro.ivm.governor import ControlEvent, PolicyGovernor, verdict
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import events, slo
from repro.workloads.arrivals import bursty_arrivals

#: Run names; ``baseline`` runs without a governor.
VARIANTS = ("baseline", "full")


@dataclass
class VariantRun:
    """One run's outcome: SLO counts, wall time, and the control trail."""

    breaches: int
    near_breaches: int
    wall_s: float
    events: list[ControlEvent] = field(default_factory=list)
    view_contents: tuple = ()


@dataclass
class ControlAblationResult:
    """Both variants and what the governor changed between them."""

    variants: dict[str, VariantRun]
    limit: float
    params: dict

    def format(self) -> str:
        lines = [
            "Controller ablation: SLO-pressure workload "
            f"(C={self.limit:.1f} ms, {self.params['horizon']} steps, "
            f"bursty x{self.params['burst_factor']} every "
            f"~{self.params['burst_every']})",
            "",
            f"{'variant':<11} {'breaches':>8} {'near':>6} {'wall_s':>8} "
            f"{'actuations':>10}",
        ]
        for name, run in self.variants.items():
            lines.append(
                f"{name:<11} {run.breaches:>8d} {run.near_breaches:>6d} "
                f"{run.wall_s:>8.3f} "
                f"{len(run.events):>10d}"
            )
        baseline, full = self.variants["baseline"], self.variants["full"]
        lines.append("")
        lines.append(
            "Policy governor (cost of disabling it, vs full): "
            f"{baseline.breaches - full.breaches:+d} breaches  "
            f"{baseline.wall_s - full.wall_s:+.3f} s wall"
        )
        return "\n".join(lines)


def _pressure_workload(scale: float, horizon: int, seed: int):
    """Arrivals + costs + a constraint that keeps ONLINE near the band."""
    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs)
    arrivals = bursty_arrivals(
        common.ARRIVAL_MIX,
        horizon,
        burst_every=_BURST_EVERY,
        burst_factor=_BURST_FACTOR,
        seed=seed,
    )
    return arrivals, costs, limit


_BURST_EVERY = 15
_BURST_FACTOR = 8


def _run_variant(
    name: str,
    arrivals,
    costs,
    limit: float,
    scale: float,
    seed: int,
) -> VariantRun:
    setup = common.build_setup(scale=scale, update_seed=seed)
    # build_setup materializes its own view; this harness drives the
    # coordinator's copy instead, so drop the spare subscription.
    setup.view.close()
    db = setup.database
    coordinator = MaintenanceCoordinator(db)
    coordinator.add_view(
        ViewConfig(
            name="paper_view",
            query=common.paper_view_spec(),
            policy=OnlinePolicy(),
            cost_functions=costs,
            limit=limit,
            scheduled_aliases=common.SCHEDULED_ALIASES,
        )
    )
    governor = PolicyGovernor(coordinator) if name == "full" else None
    # This run's own actuations, whatever rings an outer --control-log
    # holds open; and a fresh per-variant recorder, so variants do not
    # share metric state under an outer benchmark recorder.
    actuations: list[ControlEvent] = []
    with obs.recording(), events.subscribe("actuation", actuations.append):
        start = time.perf_counter()
        for t, step_arrivals in enumerate(arrivals):
            setup.apply_arrivals(step_arrivals)
            coordinator.step(t)
            if governor is not None:
                governor.tick(t)
        wall = time.perf_counter() - start
    maintainer = coordinator.maintainer("paper_view")
    view = maintainer.view
    kinds = [verdict(maintainer.model, e) for e in maintainer.ledger.entries]
    return VariantRun(
        breaches=kinds.count(slo.BREACH),
        near_breaches=kinds.count(slo.NEAR_BREACH),
        wall_s=wall,
        events=actuations,
        view_contents=tuple(sorted(view.contents().items())),
    )


def run_control_ablation(
    scale: float = 0.01,
    horizon: int = 120,
    seed: int = 11,
) -> ControlAblationResult:
    """Run both variants; see the module docstring."""
    arrivals, costs, limit = _pressure_workload(scale, horizon, seed)
    variants = {
        name: _run_variant(
            name, arrivals, costs, limit, scale=scale, seed=seed
        )
        for name in VARIANTS
    }
    return ControlAblationResult(
        variants=variants,
        limit=limit,
        params={
            "scale": scale,
            "horizon": horizon,
            "seed": seed,
            "burst_every": _BURST_EVERY,
            "burst_factor": _BURST_FACTOR,
        },
    )


def run_control_sample(
    scale: float = 0.01,
    horizon: int = 80,
    seed: int = 11,
) -> list[ControlEvent]:
    """One adaptive run (governor on) for ``repro control-log``; returns
    the control trail."""
    arrivals, costs, limit = _pressure_workload(scale, horizon, seed)
    run = _run_variant("full", arrivals, costs, limit, scale=scale, seed=seed)
    return run.events
