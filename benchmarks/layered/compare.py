"""Spread-aware gate between two result sets (parent, change).

    PYTHONPATH=src python -m benchmarks.layered.compare PARENT.json CHANGE.json

Applies the bounds in BENCHMARK.json to every (end-to-end metric, workload)
pair and prints one row per pair: medians, quartiles, and the ratio
change / parent.  A pair whose parent inter-quartile spread exceeds the
bound is ``unresolved`` (not ``ok``), unless every run of the change reads
better than every run of the parent.  ``(exact)`` counts and, at equal
seeds, ``sim_cost_ms`` must be identical.

Exit status: 0 no regression; 1 a metric worsened by more than its bound or
an operation failed; 2 an exact count differs (a deliberate plan-shape
change or a bug -- say which).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import report
from .stats import exact_mismatches


def judge(parent: dict, change: dict, better: str, bound: float) -> tuple[float, str]:
    """(change / parent, verdict) for one metric on one workload."""
    ratio = change["median"] / parent["median"]
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (ratio - 1.0)
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    if better == "lower":
        clear_win = max(change["values"]) < min(parent["values"])
    else:
        clear_win = min(change["values"]) > max(parent["values"])
    if clear_win:
        return ratio, "better"
    if spread > bound:
        return ratio, "unresolved"
    if worsening > bound:
        return ratio, "REGRESSION"
    return ratio, "ok"


def _exact_counts(entry: dict) -> dict:
    """Every count of one workload that must repeat for one seed."""
    counts = dict(entry["exact"])
    counts.update({
        name: row["value"] for name, row in entry.get("per_layer", {}).items()
        if row["exact"]
    })
    return counts


def compare(parent: dict, change: dict, manifest: dict, out=sys.stdout) -> int:
    metrics = {m["name"]: m for m in manifest["end_to_end"]}
    regressions = mismatches = 0
    same_seed = parent["seed"] == change["seed"]
    print(
        f"parent: commit {parent['host']['commit'][:12]} seed {parent['seed']} "
        f"reps {parent['reps']} | change: commit {change['host']['commit'][:12]} "
        f"seed {change['seed']} reps {change['reps']}",
        file=out,
    )
    print(
        f"{'workload':<20}{'metric':<18}{'parent median [q1, q3]':>40}"
        f"{'change median [q1, q3]':>40}{'change/parent':>15}  verdict",
        file=out,
    )
    for name, base in parent["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            print(f"{name:<20}missing from the change", file=out)
            regressions += 1
            continue
        for metric, spec in metrics.items():
            p, c = base["end_to_end"][metric], new["end_to_end"][metric]
            ratio, verdict = judge(p, c, spec["better"], spec["bound"])
            if metric == "sim_cost_ms" and same_seed and p["median"] != c["median"]:
                verdict += " MISMATCH(exact)"
                mismatches += 1
            regressions += verdict.startswith("REGRESSION")

            def cell(row):
                return f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"

            print(
                f"{name:<20}{metric:<18}{cell(p):>40}{cell(c):>40}"
                f"{ratio:>15.4f}  {verdict} (bound {spec['bound']})",
                file=out,
            )
        if new["ops_failed"] > base["ops_failed"]:
            print(f"{name:<20}ops_failed {base['ops_failed']} -> "
                  f"{new['ops_failed']}  REGRESSION", file=out)
            regressions += 1
        if same_seed:
            exact_p, exact_c = _exact_counts(base), _exact_counts(new)
            # A set recorded without its traced run lacks the traced counts.
            shared = exact_p.keys() & exact_c.keys()
            differing = exact_mismatches(
                {k: exact_c[k] for k in shared}, {k: exact_p[k] for k in shared}
            )
            for key in differing:
                print(f"{name:<20}{key}: {exact_p[key]} -> {exact_c[key]}  "
                      "MISMATCH(exact)", file=out)
            mismatches += len(differing)
    print(
        f"\n{regressions} regression(s), {mismatches} exact mismatch(es)"
        + ("" if same_seed else "; seeds differ, exact counts not compared"),
        file=out,
    )
    if regressions:
        return 1
    return 2 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layered.compare",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("parent", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    return compare(parent, change, report.load_manifest())


if __name__ == "__main__":
    sys.exit(main())
