"""Closed-loop adaptive runtime: governors that consume the telemetry.

The signals the observability layer grew -- ``slo.*`` margins with
alert callbacks, ``engine.block.low_fill``, calibration drift residuals
-- feed a controller here that actuates the matching runtime knob:
scheduling policy (:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`)
and block size (:meth:`~repro.engine.database.Database.set_block_size`).
Every actuation is recorded as a :class:`~repro.control.events.ControlEvent`
in a bounded log with ``control.*`` metrics, a ``/control`` HTTP route,
and the ``repro control-log`` CLI renderer.  The ablation harness
(:mod:`repro.control.ablation`, ``benchmarks/bench_ablations_control.py``)
scores each governor's contribution.
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
from repro.control.governors import (
    BlockSizeGovernor,
    Governor,
    PolicyGovernor,
)

__all__ = [
    "BlockSizeGovernor",
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
