"""Closed-loop controller ablation: does the policy governor earn its keep?

Runs :func:`repro.experiments.control_ablation.run_control_ablation` --
baseline (no governor) and the full loop over the identical bursty
SLO-pressure workload -- and asserts the loop's load-bearing claims:

* with the governor on, SLO breaches land strictly below baseline;
* no variant ever changes view contents -- the controller moves
  scheduling, never results.

The wall-time column is reported but not asserted.
"""

from benchmarks import write_table
from repro.experiments.control_ablation import run_control_ablation


def bench_control_ablation():
    result = run_control_ablation(horizon=120)
    write_table("ablation_control", result.format())
    baseline = result.variants["baseline"]
    full = result.variants["full"]
    assert full.breaches < baseline.breaches
    assert all(
        run.view_contents == baseline.view_contents
        for run in result.variants.values()
    )
    # The audit trail is complete: the run with the policy governor
    # enabled records its one switch, SLO pressure moving the paper view
    # from ONLINE to NAIVE, as a ControlEvent.
    assert [(e.view, e.old, e.new) for e in full.events] == [
        ("paper_view", "online", "naive")
    ]
    assert not baseline.events
