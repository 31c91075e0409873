"""``--quick`` self-test: the harness reports what it promises and can fail.

Runs every workload at tiny sizes (timings are meaningless) and checks that
every metric BENCHMARK.json names is reported with its unit, that the exact
counts repeat across two runs, that telemetry leaves the simulated cost
alone, and that two injected faults each raise ``failed`` above zero.
"""

from __future__ import annotations

import json
import sys

from . import catalog, report, runner


def manifest_problems(manifest: dict) -> list[str]:
    """Where BENCHMARK.json and catalog.py disagree."""
    problems = []
    listed = {w["name"]: w["why"] for w in manifest["workloads"]}
    if listed != catalog.WORKLOADS:
        problems.append("workloads differ from catalog.WORKLOADS")
    for key, metrics, fields in (
        ("end_to_end", catalog.END_TO_END, ("name", "unit", "better", "bound")),
        ("per_layer", catalog.PER_LAYER, ("name", "unit", "better")),
    ):
        want = [{f: getattr(m, f) for f in fields} for m in metrics]
        if manifest[key] != want:
            problems.append(f"{key} differs from catalog")
    return problems


def main(seed: int = catalog.DEFAULT_SEED) -> int:
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    manifest = report.load_manifest()
    for problem in manifest_problems(manifest) or [None]:
        check(problem is None, problem or "BENCHMARK.json matches the catalogue")

    sim_cost = {}
    for name in catalog.WORKLOADS:
        plain = runner.run_workload(name, seed, 0, trace=False, quick=True)
        traced = runner.run_workload(name, seed, 0, trace=True, quick=True)
        sim_cost[name] = plain["end_to_end"]["sim_cost_ms"]
        for run, key in ((plain, "end_to_end"), (traced, "per_layer")):
            line = json.loads(runner.contract_line(run))
            want = {m["name"]: m["unit"] for m in manifest[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            numeric = all(
                isinstance(v["value"], (int, float)) for v in line["metrics"].values()
            )
            check(got == want and numeric,
                  f"{name}: every {key} metric present with its unit")
        check(all(v > 0 for v in plain["end_to_end"].values()),
              f"{name}: no end-to-end metric is zero")
        check(plain["failed"] == 0 and traced["failed"] == 0,
              f"{name}: ops_failed == 0 "
              f"{plain['failures'] + traced['failures'] or ''}")
        differing = runner.exact_mismatches(traced["exact"], plain["exact"])
        check(not differing,
              f"{name}: exact counts agree across two runs {differing or ''}")
        check(traced["per_layer"]["bench.span_coverage"] > 0.5,
              f"{name}: spans cover the traced wall")
    check(sim_cost["maintain_trace_obs"] == sim_cost["maintain_trace"],
          "sim_cost_ms(maintain_trace_obs) == sim_cost_ms(maintain_trace)")

    for fault in ("bad_policy", "perturb_view"):
        run = runner.run_workload(
            "maintain_trace", seed, 0, trace=False, quick=True, fault=fault
        )
        check(run["failed"] > 0 and not run["correct"],
              f"injected fault {fault} raises ops_failed ({run['failed']})")

    print(f"\n{'FAILED' if problems else 'passed'}: "
          f"{len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0
