"""Closed-loop adaptive runtime: governors that consume the telemetry.

The signals the observability layer grew -- ``slo.*`` margins with
alert callbacks, calibration drift residuals -- feed a controller here
that actuates the matching runtime knob, the scheduling policy
(:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`).
Every actuation is recorded as a :class:`~repro.control.events.ControlEvent`
in a bounded log with ``control.*`` metrics, a ``/control`` HTTP route,
and the ``repro control-log`` CLI renderer.  The ablation harness
(:mod:`repro.control.ablation`, ``benchmarks/bench_ablations_control.py``)
scores the loop against a run without it.
"""

from repro.control.controller import Controller, build_controller
from repro.control.events import (
    ControlEvent,
    ControlLog,
    collecting,
    get_control_log,
    render_control_log,
    set_control_log,
)
from repro.control.governors import Governor, PolicyGovernor

__all__ = [
    "ControlEvent",
    "ControlLog",
    "Controller",
    "Governor",
    "PolicyGovernor",
    "build_controller",
    "collecting",
    "get_control_log",
    "render_control_log",
    "set_control_log",
]
