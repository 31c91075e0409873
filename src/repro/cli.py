"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiment <name>``
    Run one experiment driver (``fig1``, ``intro``, ``fig4``, ``fig5``,
    ``fig6``, ``fig7``, ``bounds``, ``ablations``, ``operator-asymmetry``,
    ``online-bound``, ``three-way``, ``concavity``) and print its table --
    the same output the benchmarks persist under ``benchmarks/results/``.
    ``ablations`` prints five: A* heuristic, plan class, estimators, cost
    families and the replanning study.  ``--scale`` reaches every driver
    that loads TPC-R data.

``calibrate``
    Measure the paper view's batch cost functions on a freshly generated
    TPC-R database and print the samples and linear fits.

``generate``
    dbgen mode: emit TPC-R tables as pipe-delimited ``.tbl`` files.

``sql``
    Run a SQL query against a freshly loaded TPC-R database.

``explain``
    Print the physical plan of a SQL query; ``--analyze`` executes it and
    renders the per-operator EXPLAIN ANALYZE tree (rows, blocks,
    simulated charge breakdown, wall time).

``why``
    Render the planner's decision trail as a text tree: per step, the
    backlog the policy saw, every candidate action with its predicted
    ``f(q)`` cost, the chosen action and the winning comparison; under a
    live decision, one line per flushed table with its actual cost,
    prediction and residual.  Reads a ``--decision-log`` JSONL file with
    ``--log``; without one it runs a small sample simulation on the
    paper's workload.  ``--view`` and ``--step`` filter the trail.

``control-log``
    Render the adaptive runtime's control trail as a text tree: every
    actuation the policy governor made, with its reason and the signal
    values it acted on.  Reads a ``--control-log`` JSONL file with
    ``--log``; without one it runs a small adaptive sample on the
    paper's workload under SLO pressure.  ``--view`` filters the trail.

``control-ablation``
    Run the closed-loop ablation: baseline (no controller) and the full
    loop over the same bursty SLO-pressure workload, then print both
    variants and what the governor changed (breaches and wall time).

Observability (any subcommand)
------------------------------

``--metrics``
    Install a :mod:`repro.obs` recorder for the run and print its metrics
    summary table on exit.

``--trace FILE``
    Additionally record nested wall-clock spans and export the run as
    Chrome-trace-compatible JSONL (view in ``chrome://tracing`` or
    Perfetto); implies ``--metrics``.  See ``docs/observability.md``.

``--profile FILE`` / ``--decision-log FILE`` / ``--control-log FILE``
    Stream the run's ``profile`` / ``decision`` and ``calibration`` /
    ``actuation`` events (:mod:`repro.obs.events`) to FILE as JSONL, one
    event dict per line with its ``"kind"``, each written as it is
    emitted: every query any Database executes, attributed per operator;
    every policy decision (simulator or live maintenance) and every live
    flush's predicted and actual cost -- the input of ``repro why --log
    FILE``; every actuation the policy governor makes -- the input of
    ``repro control-log --log FILE``.  Independent of ``--metrics``.

All flags are accepted before or after the subcommand, and experiment
names work as top-level shorthand: ``repro fig6 --trace out.jsonl`` is
``repro experiment fig6 --trace out.jsonl``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

EXPERIMENT_NAMES: tuple[str, ...] = (
    "fig1", "intro", "fig4", "fig5", "fig6", "fig7",
    "bounds", "ablations", "operator-asymmetry",
    "online-bound", "three-way", "concavity",
)

#: ``--flag FILE`` -> (the event kinds it streams to FILE, the flag's
#: help).  The parsed FILE is stored under the first kind's name.
EVENT_FLAGS = {
    "--profile": (
        ("profile",),
        "profile every query the run executes and append the "
        "per-operator attribution trees to FILE as JSONL",
    ),
    "--decision-log": (
        ("decision", "calibration"),
        "append every planner decision, and every live flush's "
        "predicted and actual cost, to FILE as JSONL "
        "(readable with `repro why --log FILE`)",
    ),
    "--control-log": (
        ("actuation",),
        "append every actuation the policy governor makes to FILE as "
        "JSONL (readable with `repro control-log --log FILE`)",
    ),
}

#: What the exit message calls each streamed kind's events.
NOUNS = {
    "profile": "query profiles",
    "decision": "decision events",
    "calibration": "calibration samples",
    "actuation": "control events",
}


def _checked(cast: type, what: str, ok: Callable[[float], bool]):
    """An argparse ``type=``: ``cast(text)`` when ``ok`` holds of it, else
    a usage error (exit 2) instead of a traceback from the library check
    the value would reach."""

    def parse(text: str):
        value = cast(text)  # ValueError: argparse's "invalid <what> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value

    parse.__name__ = what
    return parse


_scale = _checked(float, "positive scale factor", lambda v: 0 < v < math.inf)
_horizon = _checked(int, "non-negative step count", lambda v: v >= 0)
_batch = _checked(int, "positive batch size", lambda v: v > 0)


def _obs_flags() -> argparse.ArgumentParser:
    """Shared ``--trace``/``--metrics`` options, valid at any position.

    One instance is attached to every subparser; the root gets its *own*
    instance.  ``SUPPRESS`` defaults keep a subparser from clobbering a
    value already parsed at the root (root-level ``set_defaults`` provides
    the fallback) -- and the root must not share action objects with the
    subparsers because ``set_defaults`` rewrites ``action.default`` in
    place, which would silently replace the subparsers' ``SUPPRESS``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help=(
            "record spans + metrics and write a Chrome-trace JSONL file "
            "(implies --metrics)"
        ),
    )
    parent.add_argument(
        "--metrics",
        action="store_true",
        default=argparse.SUPPRESS,
        help="record metrics and print a summary table on exit",
    )
    for flag, (kinds, text) in EVENT_FLAGS.items():
        parent.add_argument(
            flag, dest=kinds[0], metavar="FILE", default=argparse.SUPPRESS,
            help=text,
        )
    return parent


def build_parser() -> argparse.ArgumentParser:
    from repro.tpcr.schema import TPCR_SCHEMAS

    obs_flags = _obs_flags()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Asymmetric Batch Incremental View Maintenance (ICDE 2005) "
            "reproduction"
        ),
        parents=[_obs_flags()],
    )
    parser.set_defaults(
        trace=None,
        metrics=False,
        **{kinds[0]: None for kinds, _ in EVENT_FLAGS.values()},
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment",
        help="run one paper experiment and print its table",
        parents=[obs_flags],
    )
    experiment.add_argument("name", choices=list(EXPERIMENT_NAMES))
    experiment.add_argument(
        "--scale", type=_scale, default=0.01, help="TPC-R scale factor"
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="measure the paper view's batch cost functions",
        parents=[obs_flags],
    )
    calibrate.add_argument("--scale", type=_scale, default=0.01)
    calibrate.add_argument(
        "--batches",
        type=_batch,
        nargs="+",
        default=[10, 25, 50, 100, 200, 400],
        help="batch sizes to sweep",
    )

    generate = sub.add_parser(
        "generate",
        help="emit TPC-R tables as dbgen-style .tbl files",
        parents=[obs_flags],
    )
    generate.add_argument("--scale", type=_scale, default=0.01)
    generate.add_argument("--seed", type=int, default=19721212)
    generate.add_argument(
        "--tables",
        nargs="+",
        choices=list(TPCR_SCHEMAS),
        metavar="TABLE",
        default=["region", "nation", "supplier", "partsupp"],
    )
    generate.add_argument("--out", required=True, help="output directory")

    sql = sub.add_parser(
        "sql",
        help="run a SQL query against a fresh TPC-R database",
        parents=[obs_flags],
    )
    sql.add_argument("query", help="the SELECT statement")
    sql.add_argument("--scale", type=_scale, default=0.01)
    sql.add_argument(
        "--max-rows", type=int, default=20, help="truncate printed output"
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "print a SQL query's physical plan; --analyze executes it "
            "and renders the per-operator EXPLAIN ANALYZE tree"
        ),
        parents=[obs_flags],
    )
    explain.add_argument("query", help="the SELECT statement")
    explain.add_argument("--scale", type=_scale, default=0.01)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "execute the query and annotate every operator with rows, "
            "blocks, simulated charges, and wall time"
        ),
    )

    timeline = sub.add_parser(
        "timeline",
        help=(
            "visualize maintenance plans on the paper's workload: ASCII "
            "backlog timeline per policy plus a comparison table"
        ),
        parents=[obs_flags],
    )
    timeline.add_argument("--scale", type=_scale, default=0.01)
    timeline.add_argument("--horizon", type=_horizon, default=200)
    timeline.add_argument(
        "--policies",
        nargs="+",
        default=["naive", "optimal", "online"],
        choices=["naive", "optimal", "online", "adapt"],
    )

    why = sub.add_parser(
        "why",
        help=(
            "render the planner's decision trail as a text tree: "
            "backlog, candidates, predicted costs, rationale, and each "
            "live flush's actual cost"
        ),
        parents=[obs_flags],
    )
    why.add_argument(
        "--log",
        metavar="FILE",
        default=None,
        help=(
            "read decisions from a --decision-log JSONL file instead of "
            "running the sample workload"
        ),
    )
    why.add_argument(
        "--view", default=None, help="only decisions for this view id"
    )
    why.add_argument(
        "--step", type=int, default=None,
        help="only decisions at this time step",
    )
    why.add_argument(
        "--policy",
        choices=["naive", "online", "receding"],
        default="online",
        help="policy for the sample workload (ignored with --log)",
    )
    why.add_argument("--scale", type=_scale, default=0.01)
    why.add_argument(
        "--horizon", type=_horizon, default=60,
        help="sample-workload length in steps (ignored with --log)",
    )

    control_log = sub.add_parser(
        "control-log",
        help=(
            "render the adaptive runtime's control trail: every governor "
            "actuation with its reason and signal values"
        ),
        parents=[obs_flags],
    )
    control_log.add_argument(
        "--log",
        metavar="FILE",
        default=None,
        help=(
            "read control events from a --control-log JSONL file instead "
            "of running the sample adaptive workload"
        ),
    )
    control_log.add_argument(
        "--view", default=None, help="only events for this view"
    )
    control_log.add_argument("--scale", type=_scale, default=0.01)
    control_log.add_argument(
        "--horizon", type=_horizon, default=80,
        help="sample-workload length in steps (ignored with --log)",
    )

    control_ablation = sub.add_parser(
        "control-ablation",
        help=(
            "run the closed-loop ablation (baseline vs the full loop) "
            "and print the report"
        ),
        parents=[obs_flags],
    )
    control_ablation.add_argument("--scale", type=_scale, default=0.01)
    control_ablation.add_argument(
        "--horizon", type=_horizon, default=120,
        help="steps per variant run",
    )
    control_ablation.add_argument(
        "--seed", type=int, default=11, help="workload seed"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in EXPERIMENT_NAMES:
        # Shorthand: ``repro fig6 ...`` == ``repro experiment fig6 ...``.
        argv = ["experiment", *argv]
    args = build_parser().parse_args(argv)
    handler = {
        "experiment": _run_experiment,
        "calibrate": _run_calibrate,
        "generate": _run_generate,
        "sql": _run_sql,
        "explain": _run_explain,
        "timeline": _run_timeline,
        "why": _run_why,
        "control-log": _run_control_log,
        "control-ablation": _run_control_ablation,
    }[args.command]
    paths = {
        kinds: getattr(args, kinds[0])
        for kinds, _ in EVENT_FLAGS.values()
        if getattr(args, kinds[0])
    }
    if paths:
        handler = _with_event_files(handler, paths)
    if not (args.trace or args.metrics):
        return handler(args)
    return _run_observed(handler, args)


def _with_event_files(handler, paths):
    """Wrap a subcommand handler so the run's events stream to files.

    ``paths`` maps a flag's event kinds to its file.  Each event of those
    kinds is written as it is emitted, one JSON object per line with its
    ``"kind"``; nothing is held back, so a run of any length keeps
    every event.
    """

    def wrapped(args) -> int:
        import json
        from contextlib import ExitStack

        from repro.obs import events

        with ExitStack() as stack:
            try:
                # Fail fast, same contract as --trace.
                files = {
                    kinds: stack.enter_context(
                        open(path, "w", encoding="utf-8")
                    )
                    for kinds, path in paths.items()
                }
            except OSError as exc:
                print(f"error: cannot write {exc.filename!r}: {exc}", file=sys.stderr)
                return 2
            counts = {kind: 0 for kinds in paths for kind in kinds}

            def writer(kind, file):
                def write(event) -> None:
                    data = {"kind": kind, **event.to_dict()}
                    file.write(json.dumps(data, sort_keys=True) + "\n")
                    counts[kind] += 1

                return write

            for kinds, file in files.items():
                for kind in kinds:
                    stack.enter_context(
                        events.subscribe(kind, writer(kind, file))
                    )
            try:
                return handler(args)
            finally:
                for kinds, path in paths.items():
                    wrote = " and ".join(
                        f"{counts[kind]} {NOUNS[kind]}" for kind in kinds
                    )
                    print(f"[obs] wrote {wrote} to {path}", file=sys.stderr)

    return wrapped


def _run_observed(handler, args) -> int:
    """Run ``handler`` under a fresh recorder; report metrics/trace on exit.

    The recorder wraps the *entire* subcommand, so everything the run does
    -- calibration, planning, simulation, live maintenance -- lands in one
    registry and one trace file.  Both reports are emitted in a
    ``finally`` block, so a run that raises still flushes its trace file
    and metrics table -- a failed run leaves its evidence behind.  The
    table goes to stdout (printing it is what ``--metrics`` asks for);
    the ``[obs]`` status line goes to stderr like every other one.
    """
    from repro import obs

    if args.trace:
        try:
            # Fail fast: a mistyped destination should surface now, not
            # after minutes of experiment whose output is then lost.
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write {args.trace!r}: {exc}", file=sys.stderr)
            return 2

    recorder = obs.Recorder(trace=bool(args.trace))
    obs.install(recorder)
    try:
        with obs.trace("cli.command", command=args.command):
            return handler(args)
    finally:
        obs.install(None)
        print("\n" + recorder.summary_table())
        if args.trace:
            count = recorder.write_trace(args.trace)
            print(
                f"[obs] wrote {count} trace events to {args.trace}",
                file=sys.stderr,
            )


# ----------------------------------------------------------------------


def _run_experiment(args) -> int:
    from repro import experiments as exp

    if args.name == "ablations":
        scaled = {"scale": args.scale}
        for runner, kwargs in (
            (exp.run_astar_heuristic_ablation, scaled),
            (exp.run_plan_class_ablation, scaled),
            (exp.run_estimator_ablation, scaled),
            (exp.run_cost_family_study, {}),  # synthetic costs: no TPC-R data
            (exp.run_replanning_study, scaled),
        ):
            print(runner(**kwargs).format())
            print()
        return 0
    runners = {
        "fig1": lambda: exp.run_fig1(scale=args.scale),
        "intro": lambda: exp.run_intro_example(scale=args.scale),
        "fig4": lambda: exp.run_fig4(scale=args.scale),
        "fig5": lambda: exp.run_fig5(scale=args.scale),
        "fig6": lambda: exp.run_fig6(scale=args.scale),
        "fig7": lambda: exp.run_fig7(scale=args.scale),
        "bounds": lambda: exp.run_bounds_study(),
        "operator-asymmetry": lambda: exp.run_operator_asymmetry(),
        "online-bound": lambda: exp.run_online_bound_study(),
        "three-way": lambda: exp.run_three_way(scale=args.scale),
        "concavity": lambda: exp.run_concavity_study(),
    }
    print(runners[args.name]().format())
    return 0


def _run_calibrate(args) -> int:
    from repro.experiments import common
    from repro.ivm.calibration import measure_cost_function

    if len(args.batches) < 2:
        print("error: --batches needs at least two sizes to fit", file=sys.stderr)
        return 2
    setup = common.build_setup(scale=args.scale, update_seed=321)
    for alias, updater in (
        ("PS", setup.ps_updater),
        ("S", setup.supplier_updater),
    ):
        result = measure_cost_function(
            setup.view, alias, args.batches, updater
        )
        print(f"f_{alias}(k) samples (simulated ms):")
        for k, cost in result.samples:
            print(f"  {k:6d}  {cost:10.2f}")
        fit = result.linear_fit
        print(
            f"  fit: {fit.slope:.4f} * k + {fit.setup:.2f}   "
            f"(max rel err {result.max_relative_fit_error():.1%})\n"
        )
    return 0


def _run_generate(args) -> int:
    from repro.engine.database import Database
    from repro.engine.io import dump_database
    from repro.tpcr.gen import load_tpcr

    db = Database()
    load_tpcr(db, scale=args.scale, seed=args.seed, tables=args.tables)
    counts = dump_database(db, args.out)
    for name, count in sorted(counts.items()):
        print(f"{name}.tbl: {count} rows")
    return 0


def _load_sql_database(scale: float):
    """A fresh TPC-R database with the standard key indexes, for ad-hoc SQL."""
    from repro.engine.database import Database
    from repro.tpcr.gen import load_tpcr

    db = Database()
    load_tpcr(
        db,
        scale=scale,
        tables=(
            "region", "nation", "supplier", "partsupp", "part",
        ),
    )
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")
    db.table("part").create_index("partkey")
    return db


def _run_query(args, run) -> int:
    """Parse ``args.query`` and call ``run(args, database, spec)`` on a
    fresh TPC-R database; a query the parser or the planner refuses is
    reported on stderr, exit 1."""
    from repro.engine.errors import SchemaError
    from repro.sql import SqlError, parse_query

    try:
        spec = parse_query(args.query)
        run(args, _load_sql_database(args.scale), spec)
    except (SqlError, SchemaError) as exc:
        print(f"SQL error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_sql(args) -> int:
    return _run_query(args, _print_result)


def _print_result(args, db, spec) -> None:
    with db.counter.window() as window:
        result = db.execute(spec)
    print("  ".join(result.columns))
    for i, row in enumerate(result.rows):
        if i >= args.max_rows:
            print(f"... ({len(result.rows) - args.max_rows} more rows)")
            break
        print("  ".join(str(v) for v in row))
    print(
        f"\n{len(result.rows)} row(s); simulated cost "
        f"{window.elapsed_ms:.2f} ms"
    )


def _run_explain(args) -> int:
    return _run_query(
        args,
        lambda args, db, spec: print(db.explain(spec, analyze=args.analyze)),
    )


def _run_timeline(args) -> int:
    from repro.core.adapt import adapt_plan
    from repro.core.astar import find_optimal_lgm_plan
    from repro.core.naive import NaivePolicy
    from repro.core.online import OnlinePolicy
    from repro.core.report import (
        compare_traces,
        render_trace_timeline,
        slo_summary,
    )
    from repro.core.simulator import execute_plan, simulate_policy
    from repro.experiments import common
    from repro.workloads.arrivals import uniform_arrivals

    costs = common.cost_functions(scale=args.scale)
    limit = common.default_limit(costs)
    arrivals = uniform_arrivals(common.ARRIVAL_MIX, args.horizon + 1)
    problem = common.make_problem(arrivals, limit, costs)

    traces = {}
    for name in args.policies:
        if name == "naive":
            traces["NAIVE"] = simulate_policy(problem, NaivePolicy())
        elif name == "optimal":
            traces["OPT_LGM"] = execute_plan(
                problem, find_optimal_lgm_plan(problem).plan
            )
        elif name == "online":
            traces["ONLINE"] = simulate_policy(problem, OnlinePolicy())
        else:
            policy = adapt_plan(problem, max(1, args.horizon // 2))
            traces["ADAPT"] = simulate_policy(problem, policy)

    for name, trace in traces.items():
        print(f"=== {name} ===")
        print(
            render_trace_timeline(
                problem, trace, table_names=("PS", "S")
            )
        )
        print()
    print(compare_traces(problem, traces))
    print()
    print(slo_summary(problem, traces))
    return 0


def _read_event_log(path, classes, flag):
    """The events of a ``flag`` JSONL file, or ``None`` after reporting
    why it cannot be read.

    ``classes`` maps each kind the file may hold to its event class; a
    line with no ``"kind"`` (logs once carried none) is of the first.
    """
    from repro.obs import read_jsonl

    default = next(iter(classes))
    try:
        logged = []
        for data in read_jsonl(path):
            if not isinstance(data, dict):
                raise ValueError(f"a line holds a {type(data).__name__}")
            kind = data.get("kind", default)
            if kind not in classes:
                raise ValueError(f"a line holds a {kind!r} event")
            logged.append(classes[kind].from_dict(data))
        return logged
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
    except (KeyError, TypeError, ValueError) as exc:
        print(
            f"error: {path!r} is not a {flag} JSONL file: {exc}",
            file=sys.stderr,
        )
    return None


def _run_why(args) -> int:
    from repro.obs.calibration import CalibrationSample
    from repro.obs.decisions import DecisionEvent
    from repro.obs.events import render_trail

    if args.log:
        logged = _read_event_log(
            args.log,
            {"decision": DecisionEvent, "calibration": CalibrationSample},
            "decision-log",
        )
        if logged is None:
            return 2
    else:
        logged = _why_sample_run(args)
    # A live step's flushes hang under its decision: its calibration
    # samples carry the same (view, t).
    trail, flushed = [], {}
    for event in logged:
        if isinstance(event, CalibrationSample):
            flushed.setdefault((event.view, event.t), []).append(event)
        else:
            trail.append(event)
    print(
        render_trail(
            trail, "decision trail", "decision",
            lines=lambda d: d.lines(flushed.get((d.view, d.t), ())),
            view=args.view, step=args.step,
        )
    )
    return 0


def _why_sample_run(args):
    """Simulate the paper's workload; returns its decisions, every one."""
    from repro.core.naive import NaivePolicy
    from repro.core.online import OnlinePolicy
    from repro.core.receding import RecedingHorizonPolicy
    from repro.core.simulator import simulate_policy
    from repro.experiments import common
    from repro.obs import events
    from repro.workloads.arrivals import uniform_arrivals

    costs = common.cost_functions(scale=args.scale)
    limit = common.default_limit(costs)
    arrivals = uniform_arrivals(common.ARRIVAL_MIX, args.horizon + 1)
    problem = common.make_problem(arrivals, limit, costs)
    policy = {
        "naive": NaivePolicy,
        "online": OnlinePolicy,
        "receding": RecedingHorizonPolicy,
    }[args.policy]()
    trail = []
    with events.subscribe("decision", trail.append):
        simulate_policy(problem, policy)
    return trail


def _run_control_log(args) -> int:
    from repro.ivm import governor
    from repro.obs.events import render_trail

    if args.log:
        events = _read_event_log(
            args.log, {"actuation": governor.ControlEvent}, "control-log"
        )
        if events is None:
            return 2
    else:
        from repro.experiments.control_ablation import run_control_sample

        events = run_control_sample(
            scale=args.scale, horizon=args.horizon
        )
    print(render_trail(events, "control log", "event", view=args.view))
    return 0


def _run_control_ablation(args) -> int:
    from repro.experiments.control_ablation import run_control_ablation

    result = run_control_ablation(
        scale=args.scale, horizon=args.horizon, seed=args.seed
    )
    print(result.format())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
