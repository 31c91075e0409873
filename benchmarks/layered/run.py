"""One benchmark run of one workload -- the command BENCHMARK.json names.

    python3 benchmarks/layered/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Run from the root
of a checkout; writes nothing unless ``--detail FILE`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Variables that would change how the program under test executes.
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_PARALLEL_BACKEND")


def pinned_environment() -> dict[str, str] | None:
    """The environment a run needs, or None when this process has it.

    ``PYTHONHASHSEED`` unset moved ``latency_p50_ms`` between 57 and 88 ms on
    the maintenance trace; the parallel-engine variables would change the
    execution path (``Database(workers=0)`` is explicit as well).
    """
    env = dict(os.environ)
    if env.get("PYTHONHASHSEED") == "0" and not any(k in env for k in SCRUBBED_ENV):
        return None
    env["PYTHONHASHSEED"] = "0"
    for key in SCRUBBED_ENV:
        env.pop(key, None)
    return env


def bootstrap() -> None:
    """Re-exec under the pinned environment, then make the imports work."""
    env = pinned_environment()
    if env is not None:
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no program to measure: {ROOT}/src/repro is missing")
    # The script's own directory leads sys.path; the package imports below
    # need the checkout root and src/ instead.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]


def main(argv: list[str] | None = None) -> int:
    from benchmarks.layered import catalog, runner

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one pass (self-test only)")
    parser.add_argument("--fault", choices=("bad_policy", "perturb_view"),
                        help="inject a fault the checker must catch (self-test)")
    parser.add_argument("--detail", metavar="FILE",
                        help="also write the run's full result here as JSON "
                             "(spans of a traced run beside it, .spans.jsonl)")
    args = parser.parse_args(argv)

    import warnings

    # The engine warns once per database about under-filled blocks on the
    # tiny delta batches; that is the workload, not a finding.
    warnings.simplefilter("ignore", RuntimeWarning)
    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        quick=args.quick, fault=args.fault,
    )
    for failure in result["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    line = runner.contract_line(result)
    if args.detail:
        runner.write_run(result, args.detail)
    print(line)
    return 0


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
