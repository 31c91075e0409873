"""Every example runs: exit 0 and its closing line.

``tests/test_reach.py`` counts ``examples/`` as code that keeps library
code alive, so each example is run here as a user would run it, in a
process of its own.  The closing lines carry simulated costs, which are
deterministic: an example whose numbers move has changed behaviour.
``analytics_dashboard.py`` drives a :class:`MaintenanceCoordinator` over
views kept in lock step, so it runs the shared-contents path end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: example -> the last non-empty line it prints.
CLOSING = {
    "analytics_dashboard.py": "TOTAL                       5342.9 ms",
    "cost_asymmetry_tour.py": "worst case requires)",
    "pubsub_portfolio.py": (
        "supply_watch  notifications= 5 maintenance=  1538.3 ms "
        "guarantee violations=0"
    ),
    "quickstart.py": (
        "asymmetric scheduling beats the symmetric baseline by 1.47x"
    ),
    "warehouse_refresh.py": (
        "ONLINE saves 30% over NAIVE and 94% over EAGER, with the same "
        "refresh guarantee."
    ),
}


def test_every_example_is_listed():
    assert sorted(CLOSING) == sorted(
        path.name for path in (REPO / "examples").glob("*.py")
    )


@pytest.mark.parametrize("name", sorted(CLOSING))
def test_example_runs(name):
    ran = subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert ran.returncode == 0, ran.stderr
    lines = [line.strip() for line in ran.stdout.splitlines() if line.strip()]
    assert lines[-1] == CLOSING[name]
