"""Result sets: summarise runs, print every metric, render the trajectory.

A *result set* is what ``python -m benchmarks.layered`` writes and what
``compare.py`` and ``--render`` read: per workload the end-to-end metrics as
median / quartiles / sample count over the repetitions (each repetition is
one ``run.py`` process), the per-layer metrics of the traced run, the exact
counts, and host metadata.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import subprocess
import sys

from . import catalog
from .stats import exact_mismatches, percentile, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TRAJECTORY_DIR = os.path.join(HERE, "trajectory")


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_metadata() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def summarise(
    runs: dict[str, list[dict]], traced: dict[str, dict], *, seed: int,
    seconds: float, quick: bool,
) -> dict:
    """Fold per-run results into one result set."""
    workloads = {}
    for name, reps in runs.items():
        failed = sum(r["failed"] for r in reps)
        failures = [f for r in reps for f in r["failures"]]
        for i, other in enumerate(reps[1:], start=1):
            differing = exact_mismatches(other["exact"], reps[0]["exact"])
            if other["end_to_end"]["sim_cost_ms"] != reps[0]["end_to_end"]["sim_cost_ms"]:
                differing.append("sim_cost_ms")
            if differing:
                failed += 1
                failures.append(f"repetition {i} differs from 0 on {differing}")
        end_to_end = {}
        for metric in catalog.END_TO_END:
            values = [r["end_to_end"][metric.name] for r in reps]
            q1, median, q3 = quartiles(values)
            end_to_end[metric.name] = {
                "unit": metric.unit, "bound": metric.bound,
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "values": values,
            }
        # Latency percentiles on the samples pooled over all repetitions.
        pooled = [s for r in reps for s in r["latency_samples_ms"]]
        end_to_end["latency_p50_ms"]["pooled"] = percentile(pooled, 0.5)
        end_to_end["latency_p90_ms"]["pooled"] = percentile(pooled, 0.9)
        end_to_end["latency_p50_ms"]["samples"] = len(pooled)
        end_to_end["latency_p90_ms"]["samples"] = len(pooled)
        entry = {
            "passes_per_run": [r["passes"] for r in reps],
            "ops_attempted": reps[0]["attempted"],
            "ops_failed": failed,
            "failures": failures[:20],
            "end_to_end": end_to_end,
            "exact": reps[0]["exact"],
        }
        if name in traced:
            run = traced[name]
            entry["ops_failed"] += run["failed"]
            entry["failures"] = (entry["failures"] + run["failures"])[:20]
            entry["per_layer"] = {
                m.name: {"unit": m.unit, "exact": m.exact,
                         "value": run["per_layer"][m.name]}
                for m in catalog.PER_LAYER
            }
        workloads[name] = entry
    return {
        "schema": 1,
        "host": host_metadata(),
        "seed": seed,
        "reps": max((len(r) for r in runs.values()), default=0),
        "seconds": seconds,
        "quick": quick,
        "workloads": workloads,
    }


def print_report(result_set: dict, out=sys.stdout) -> None:
    """Every metric by name, with its unit."""
    host = result_set["host"]
    print(
        f"layered benchmark: seed={result_set['seed']} reps={result_set['reps']} "
        f"seconds/run={result_set['seconds']} nproc={host['nproc']} "
        f"python={host['python']} commit={host['commit'][:12]}",
        file=out,
    )
    for name, entry in result_set["workloads"].items():
        print(
            f"\n== {name}  ops_attempted={entry['ops_attempted']} count  "
            f"ops_failed={entry['ops_failed']} count  "
            f"passes/run={entry['passes_per_run']}",
            file=out,
        )
        for failure in entry["failures"]:
            print(f"   FAILED: {failure}", file=out)
        print(f"   {'end-to-end':<36}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'n':>4}  unit     may worsen by", file=out)
        for metric, row in entry["end_to_end"].items():
            line = (
                f"   {metric:<36}{row['median']:>14.6g}{row['q1']:>14.6g}"
                f"{row['q3']:>14.6g}{row['n']:>4}  {row['unit']:<8} {row['bound']}"
            )
            if "pooled" in row:
                line += f"  (pooled over {row['samples']} samples: {row['pooled']:.6g})"
            print(line, file=out)
        if "per_layer" in entry:
            print(f"   {'per-layer (traced run)':<44}{'value':>16}  unit",
                  file=out)
            for metric, row in entry["per_layer"].items():
                mark = " (exact)" if row["exact"] else ""
                print(f"   {metric:<44}{row['value']:>16.6g}  {row['unit']}{mark}",
                      file=out)


def trajectory_files() -> list[str]:
    def pr_number(path: str) -> int:
        return int(re.search(r"BENCH_(\d+)\.json$", path).group(1))

    return sorted(glob.glob(os.path.join(TRAJECTORY_DIR, "BENCH_*.json")),
                  key=pr_number)


def render_trajectory(out=sys.stdout) -> None:
    """Each metric's series over the BENCH_*.json files present."""
    files = trajectory_files()
    rows = []
    for path in files:
        with open(path) as fh:
            rows.append(json.load(fh))
    labels = [os.path.basename(p)[: -len(".json")] for p in files]
    print("series over: " + ", ".join(labels), file=out)
    names = list(dict.fromkeys(w for r in rows for w in r["workloads"]))
    for workload in names:
        print(f"\n== {workload}", file=out)
        entries = [r["workloads"].get(workload, {}) for r in rows]
        for kind, field in (("end_to_end", "median"), ("per_layer", "value")):
            metrics = list(dict.fromkeys(m for e in entries for m in e.get(kind, {})))
            for metric in metrics:
                series = [e.get(kind, {}).get(metric) for e in entries]
                unit = next(s["unit"] for s in series if s)
                values = "  ".join(
                    f"{s[field]:.6g}" if s else "-" for s in series
                )
                print(f"   {metric:<44}{values}  {unit}", file=out)
