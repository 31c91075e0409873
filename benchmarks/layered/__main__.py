"""Run every workload and print every metric.

    PYTHONPATH=src python -m benchmarks.layered [--seed N] [--reps N]
        [--workload NAME ...] [--seconds S] [--out DIR] [--record FILE]
    PYTHONPATH=src python -m benchmarks.layered --quick     # self-test, < 60 s
    PYTHONPATH=src python -m benchmarks.layered --render    # trajectory series
    PYTHONPATH=src python -m benchmarks.layered --pin       # rewrite pins.json

Each (workload, repetition) is one fresh ``run.py`` process; repetitions are
interleaved round-robin across workloads (rep 1 of every workload, then rep
2, ...) so host drift hits all workloads alike.  One more traced run per
workload gives the per-layer metrics; end-to-end metrics always come from
the untraced repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")


def _run_child(workload: str, seed: int, seconds: float, trace: int,
               detail: str) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--detail", detail],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"run.py {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    with open(detail) as fh:
        return json.load(fh)


def _pin(path: str) -> None:
    """Record sim_cost_ms and the exact counts at the default seed."""
    from . import catalog, runner
    from .refkernel import Reference

    reference = Reference()
    pins = {}
    for name in catalog.WORKLOADS:
        done = runner.one_pass(
            name, catalog.DEFAULT_SEED, quick=False, traced=False, rep=0,
            oracle=False, fault=None, reference=reference,
        )
        pins[name] = dict(done["exact"], sim_cost_ms=done["sim_cost_ms"])
        print(f"pinned {name}: {len(pins[name])} values")
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    from . import catalog, report, runner, selftest

    manifest = report.load_manifest()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layered", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced repetitions per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]),
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--out", metavar="DIR",
                        help="where run details, spans and results.json go "
                             "(default: a fresh temp dir)")
    parser.add_argument("--record", metavar="FILE",
                        help="also write the result set here, e.g. "
                             "benchmarks/layered/trajectory/BENCH_<pr>.json")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="self-test at tiny sizes; timings are meaningless")
    mode.add_argument("--render", action="store_true",
                      help="print each metric's series over trajectory/BENCH_*.json")
    mode.add_argument("--pin", action="store_true",
                      help="rewrite pins.json from the program as it is now")
    args = parser.parse_args(argv)

    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    if args.render:
        report.render_trajectory()
        return 0
    if args.quick:
        return selftest.main(args.seed)
    if args.pin:
        _pin(runner.PINS_PATH)
        return 0

    names = args.workload or list(catalog.WORKLOADS)
    out_dir = args.out or tempfile.mkdtemp(prefix="layered_")
    os.makedirs(out_dir, exist_ok=True)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            print(f"rep {rep + 1}/{args.reps} {name} ...", file=sys.stderr, flush=True)
            runs[name].append(_run_child(
                name, args.seed, args.seconds, 0,
                os.path.join(out_dir, f"{name}.rep{rep}.json"),
            ))
    traced = {}
    for name in names:
        print(f"traced {name} ...", file=sys.stderr, flush=True)
        traced[name] = _run_child(
            name, args.seed, args.seconds, 1,
            os.path.join(out_dir, f"{name}.traced.json"),
        )
    result_set = report.summarise(
        runs, traced, seed=args.seed, seconds=args.seconds, quick=False
    )
    report.print_report(result_set)
    targets = [os.path.join(out_dir, "results.json")]
    if args.record:
        targets.append(args.record)
    for path in targets:
        with open(path, "w") as fh:
            json.dump(result_set, fh, indent=1)
            fh.write("\n")
    print(f"\nresult set and spans written to {out_dir}", file=sys.stderr)
    failed = sum(w["ops_failed"] for w in result_set["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    from benchmarks.layered.run import pinned_environment

    env = pinned_environment()
    if env is not None:
        os.execve(
            sys.executable,
            [sys.executable, "-m", "benchmarks.layered", *sys.argv[1:]], env,
        )
    sys.path.insert(1, os.path.join(ROOT, "src"))
    sys.exit(main())
