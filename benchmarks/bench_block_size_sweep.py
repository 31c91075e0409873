"""RowBlock size sweep on the three_way engine workload.

``DEFAULT_BLOCK_SIZE`` must be a measured choice, not a guess.  This
bench runs the engine-dominated portion of the three_way experiment --
building the TPC-R database and calibrating both maintenance cost curves
(a few hundred live maintenance batches through scans, joins, and
aggregation) -- once per candidate block size, and records the wall time
of each.

One invariant is asserted while sweeping: every block size produces the
**identical simulated cost tables** (the charging invariant of the
chunked pipeline).

The structured results land in ``results/block_size_sweep.json`` under
``params.sweep``; ``docs/DESIGN.md`` quotes the conclusion.
"""

from __future__ import annotations

import time

from benchmarks._report import report
from repro.engine.block import DEFAULT_BLOCK_SIZE
from repro.experiments import common
from repro.ivm.calibration import measure_cost_function

#: Candidate sizes: powers of two around the expected plateau plus the
#: degenerate 1 (blocked plumbing at row granularity, the overhead floor).
SWEEP_SIZES: tuple[int, ...] = (1, 16, 64, 128, 256, 512, 1024)

#: A reduced calibration sweep: enough batches to dominate on engine work
#: while keeping the whole sweep in benchmark-smoke territory.
BATCHES = (1, 5, 25, 100, 200)


def _run_workload(block_size: int) -> tuple[float, float, dict]:
    """One calibration workload at ``block_size``; returns (wall seconds,
    simulated cost of the sweep, the measured samples)."""
    setup = common.build_setup(update_seed=991)
    # No experiment needs a non-default size, so build_setup has no such
    # parameter; every timed query below runs at the swept size.
    setup.database.block_size = block_size
    start = time.perf_counter()
    cal_ps = measure_cost_function(setup.view, "PS", BATCHES, setup.ps_updater)
    cal_s = measure_cost_function(setup.view, "S", BATCHES, setup.supplier_updater)
    wall = time.perf_counter() - start
    samples = {
        "PS": dict(cal_ps.samples),
        "S": dict(cal_s.samples),
    }
    sim_total = sum(c for __, c in cal_ps.samples) + sum(
        c for __, c in cal_s.samples
    )
    return wall, sim_total, samples


def _format(rows: list[dict]) -> str:
    lines = [
        "RowBlock size sweep -- three_way calibration workload",
        "",
        f"{'block size':>12} {'wall (s)':>10} {'vs 1':>9} {'sim cost (ms)':>14}",
    ]
    unit_wall = next(r["wall_s"] for r in rows if r["block_size"] == 1)
    for r in rows:
        speedup = unit_wall / r["wall_s"] if r["wall_s"] else float("inf")
        lines.append(
            f"{r['block_size']:>12} {r['wall_s']:>10.3f} {speedup:>8.2f}x "
            f"{r['sim_cost_ms']:>14.3f}"
        )
    lines.append("")
    lines.append(
        f"default block size: {DEFAULT_BLOCK_SIZE} "
        "(first size on the wall-time plateau)"
    )
    return "\n".join(lines)


def bench_block_size_sweep(run_once):
    def sweep() -> list[dict]:
        rows = []
        for size in SWEEP_SIZES:
            wall, sim, samples = _run_workload(size)
            rows.append(
                {
                    "block_size": size,
                    "wall_s": round(wall, 4),
                    "sim_cost_ms": round(sim, 6),
                    "samples": samples,
                }
            )
        return rows

    rows = run_once(sweep)

    # Charging invariant: simulated costs identical at every block size.
    reference = rows[0]
    for r in rows[1:]:
        assert r["samples"] == reference["samples"], (
            f"simulated costs diverge at block_size={r['block_size']}"
        )

    report(
        "block_size_sweep",
        _format(rows),
        params={
            "default_block_size": DEFAULT_BLOCK_SIZE,
            "batches": list(BATCHES),
            "scale": common.DEFAULT_SCALE,
            "sweep": [
                {k: r[k] for k in ("block_size", "wall_s", "sim_cost_ms")}
                for r in rows
            ],
        },
    )
