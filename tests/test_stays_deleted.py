"""What was deleted stays deleted: one table, one check per row.

Each row is a deletion a past change made, as a pattern (POSIX extended
regex, what ``grep -E`` reads) that must match no line of the text files
under its paths, or a path that must not exist.  A sample of the text
the pattern was written for shows each check can fail.  Only files git
tracks (or would track) are searched: a fresh checkout has no
``__pycache__``.  History and reference text live in the top-level
Markdown files, which the whole-tree row does not search (README.md and
EXPERIMENTS.md, which document the current code, aside), and this file
names every pattern, so it is excluded too.  A later deletion adds a row.
"""

from __future__ import annotations

import re
import subprocess
from fnmatch import fnmatch
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
HISTORY = tuple(
    p.name for p in sorted(REPO.glob("*.md"))
    if p.name not in ("README.md", "EXPERIMENTS.md")
)


class Gone(NamedTuple):
    pattern: str
    paths: tuple[str, ...]
    sample: str
    reason: str
    pr: str
    #: Names (file or directory, globs) skipped wherever they occur.
    exclude: tuple[str, ...] = ()


SRC = ("src",)
ROWS = (
    Gone(r"block_size is None|set_block_size|BlockSizeGovernor|low_fill"
         r"|RowPredicate|def compile\(self, layout|\.compile\(layout\)",
         SRC, "class BlockSizeGovernor:",
         "blocks are the one execution path, compile_block the one "
         "evaluator, block_size fixed at construction", "15, 24"),
    Gone(r"set_decision_log|get_decision_log|set_control_log"
         r"|get_control_log|set_tracker|get_tracker|class (DecisionLog"
         r"|ControlLog|CalibrationTracker|AlertHub|Controller|Governor)\b"
         r"|build_controller|install_in_thread",
         SRC, "class ControlLog:",
         "typed events go through repro.obs.events and nothing else", "18"),
    Gone(r'DriftMonitor|DriftEvent|configure_drift|drift_alerts|_on_drift'
         r'|"drift"|control\.events|control\.policy\.switches',
         SRC, "monitor = DriftMonitor()",
         "one actuation, SLO pressure -> NAIVE; one counter, "
         "control.actuations", "26"),
    Gone(r"decisions\.join|actual_table_ms|planner\.decisions\.joined"
         r"|def alerts\(",
         SRC, "decisions.join(log, ledger)",
         "an event is written once; SLO callbacks subscribe to events", "27"),
    Gone(r"_replayed|rolled_events", SRC, "self._replayed += 1",
         "a rolled-forward keyed map derives a touched key on probe", "28"),
    Gone(r'HashIndex|SortedIndex|probe_cache|_lookup_cache|_build_sides'
         r'|_RolledSide|_index_on_cache|kind="sorted"',
         SRC, "index = HashIndex(column)",
         "an index is a declaration served by the snapshot's keyed map",
         "34"),
    Gone(r"_prof\b|active_profile|capturing\(|prof\.add\(",
         SRC, "with capturing(profile):",
         "a charge is written once, to the OperationCounter", "29"),
    Gone(r"attrib",
         ("src/repro/engine/operators.py", "src/repro/engine/join.py",
          "src/repro/engine/aggregate.py"),
         "from repro.obs import attrib",
         "no operator module knows profiling exists", "29"),
    Gone(r"AggregateState|make_aggregate_state|insert_many|delete_many",
         SRC, "state = make_aggregate_state(func)",
         "the grouped fold is one kernel per family over GroupStates", "24"),
    Gone(r"_groups[.]states", (".",), "view._groups.states[key]",
         "nothing reads the fold's old per-group state map", "24",
         exclude=HISTORY),
    Gone(r"class (StepRecord|MaintenanceLog)\b|plan_refresh"
         r"|maintenance_context|def scope\(|shared: bool|self\.shared_scans",
         SRC, "class MaintenanceLog:",
         "one round: check_action, one RoundEntry, plan_step(forced=True), "
         "events.step", "20"),
    Gone(r"_apply_events|full_refresh|has not run yet|was not requested",
         SRC, "def full_refresh(view):",
         "every flush reads its window through a SharedScanRound", "32"),
    Gone(r"ViewMaintainer|observe_refresh", ("src/repro/pubsub",),
         "self.maintainer = ViewMaintainer(view)",
         "the broker is a client of one MaintenanceCoordinator", "32"),
    Gone(r"MetricsServer|FlightRecorder|render_prometheus|prometheus_name"
         r"|serve_metrics|flight_recorder|ledger_snapshot"
         r"|class NestedLoopJoin|save_plan|load_plan",
         SRC, "server = MetricsServer(port)",
         "telemetry leaves as JSONL files and the exit table; no plan "
         "crosses processes; two joins", "21"),
    Gone(r'"ivm\.(view|skip)\.|metric_id|remove_prefix',
         SRC, 'recorder.counter("ivm.skip.fingerprint")',
         "a view's record is its ledger; every metric name is static", "35"),
    Gone(r"pytest[-_]benchmark|benchmark\.pedantic|--benchmark-only"
         r"|wall_time_s|run_once",
         ("src", "tests", "tools", "examples", "docs", "benchmarks",
          "README.md", "EXPERIMENTS.md", "pyproject.toml"),
         "benchmark.pedantic(run_once, rounds=1)",
         "wall-clock is measured in benchmarks/layered/ only; bench_*.py "
         "files time nothing", "22",
         exclude=("layered", "test_reach.py")),
    Gone(r"verify=|self\.verify", ("src/repro/ivm",),
         "self.verify = verify",
         "the stateful oracle checks contents; no maintainer recomputes", "39"),
    Gone(r"def (peek|take|take_all|events_between|window)\(",
         ("src/repro/ivm/delta.py", "src/repro/engine/table.py"),
         "    def peek(self, k: int) -> list[ModEvent]:",
         "a window is read through its round and advanced; the log hands "
         "out columns", "39"),
    Gone(r"def run_script|retention_steps|class Model\b", ("tests",),
         "class Model:",
         "interleavings are rules of the stateful oracle, and its Model is "
         "the one table model", "39", exclude=("oracle.py",)),
    Gone(r":= delta of|def _referenced_columns|def build\(self, right",
         SRC, "    def build(self, right: Any, make: Callable) -> Any:",
         "plain EXPLAIN renders the tree execute builds, a hash join builds "
         "on its first pull, and a view's signature is its delta query's "
         "column plan", "40"),
    Gone(r"def apply_ops", ("tests",), "def apply_ops(table, ops):",
         "snapshot isolation under random writes is the stateful oracle's",
         "40"),
    Gone(r"\.vacuum\(|def vacuum|check_readable|_vacuumed_lsn"
         r"|vacuum watermark",
         ("src", "tests", "tools"), "reclaimed = table.vacuum()",
         "dead versions stay stored; every LSN stays readable", "41"),
    Gone(r"def (load_table|load_database|_parse_row)\b|engine\.io\.load_table"
         r"|engine\.io\.rows_read",
         ("src", "docs"), "def load_table(db, name, schema, path):",
         "the .tbl format is written, never read", "41"),
    Gone(r"def (delete_rid|subscriber_count|validate_row|is_stale|is_valid"
         r"|actions_plan|total_predicted_ms|add_tally|propagation_count"
         r"|apply_one|setup_cost)\b|validate: bool",
         SRC, "    def delete_rid(self, rid: int) -> ModEvent:",
         "conveniences only tests called; tests use the API that stays",
         "41"),
    # Parameters only tests set are constants (tests/test_reach.py).
    Gone(r"cost_model", SRC, "        cost_model: CostModel | None = None,",
         "every database charges the one CostModel", "42"),
    Gone(r"upto_lsn", SRC, "    def truncate(self, upto_lsn: int) -> int:",
         "a log truncates to its safe LSN", "42"),
    Gone(r"self\.alpha|alpha: float|alpha=", ("src/repro/core",),
         "        alpha: float = 0.2,",
         "the EWMA weighs the newest step by EWMA_ALPHA", "42"),
    Gone(r"estimator: TimeToFullEstimator|estimator or ",
         ("src/repro/core/receding.py",),
         "        self.estimator = estimator or TimeToFullEstimator()",
         "RECEDING projects EWMA rates", "42"),
    Gone(r"reset: bool|if reset:", SRC, "    if reset:",
         "every simulated run resets its policy", "42"),
    Gone(r"max_rows", ("src/repro/core",), "    max_rows: int = 40,",
         "a timeline has at most TIMELINE_ROWS rows", "42"),
    Gone(r"near_fraction|DEFAULT_NEAR_FRACTION", ("src", "docs"),
         "    near_fraction: float = slo.DEFAULT_NEAR_FRACTION,",
         "the near-breach band is NEAR_FRACTION of C", "42"),
    Gone(r"repetitions", ("src/repro/ivm",), "    repetitions: int = 1,",
         "calibration measures each batch size once", "42"),
    Gone(r"self\.(cooldown|window)\b|(cooldown|window): int",
         ("src/repro/ivm/governor.py",), "        cooldown: int = 20,",
         "the governor's WINDOW and COOLDOWN are fixed", "42"),
    Gone(r"absolute", ("src/repro/pubsub",),
         "        absolute: float | None = None,",
         "a ValueWatch threshold is relative", "42"),
    Gone(r"refresh: bool", ("src/repro/pubsub",),
         "    def result(self, name: str, refresh: bool = False) -> Any:",
         "a subscription's result is what its view holds", "42"),
    Gone(r"source: str = \"ivm\"|step\([^)]*source=", ("src", "docs"),
         'events.step(view, t, source="ivm")',
         "a step tag is (view, t); being in a step makes the source ivm",
         "42"),
    Gone(r"form: str|form=|hi: int = 1 << 24\) -> int:$|capacity=|"
         r"capacity: int \| None|reservoir_size",
         SRC, "    def open(self, kind: str, capacity: int | None = None):",
         "cost_functions is tabulated; batch_limit caps at MAX_BATCH; a "
         "ring holds CAPACITY[kind]; a histogram keeps RESERVOIR_SIZE",
         "42"),
    Gone(r"[Pp]oisson", ("src", "tests", "README.md", "EXPERIMENTS.md",
                         "docs"),
         "def poisson_arrivals(", "an arrival model nothing drew", "42"),
    # Definitions only tests read (tests/test_reach.py).
    Gone(r"ledger_summary|SUMMARY_LIMIT|wall_ms|wall_start",
         ("src/repro/ivm",), "    wall_ms: float",
         "a ledger entry costs its round in simulated ms; no command "
         "printed the per-view table", "43"),
    Gone(r"OnEveryChange|AllOf|AnyOf", ("src", "examples"),
         "class AnyOf(NotificationCondition):",
         "no subscription used them", "43"),
    Gone(r"def at\(|log\.at\(|events\(view|view: str \| None = None, t:",
         ("src", "tests", "docs"), 'log.at("v", 17)',
         "a caller filters a ring's events by (view, t) itself", "43"),
    Gone(r"bare_message", ("src", "tests"), "self.bare_message = message",
         "set, never read", "43"),
    Gone(r"PiecewiseLinearCost|piecewise_costs", ("src", "tests", "docs"),
         "class PiecewiseLinearCost(CostFunction):",
         "a cost family nothing built", "44"),
    # A live view-round's SLO verdict is its ledger entry.
    Gone(r'_on_slo|subscribe\("slo"',
         ("src/repro/ivm", "src/repro/experiments"),
         'events.subscribe("slo", alerts.append)',
         "the governor and the control ablation read the ledger", "44"),
    Gone(r"observe_refresh", ("src/repro/ivm",),
         "            slo.observe_refresh(",
         "a maintainer emits no slo event and records no slo.* metric",
         "44"),
)

#: Paths (globs) that must not exist, each with the change that deleted it.
ABSENT = (
    ("src/repro/control", "18"),
    ("src/repro/core/persistence.py", "21"),
    ("src/repro/obs/serve.py", "21"),
    ("src/repro/obs/sampler.py", "21"),
    ("src/repro/obs/export.py", "21"),
    ("benchmarks/conftest.py", "22"),
    ("benchmarks/_report.py", "22"),
    ("benchmarks/check_regression.py", "22"),
    ("benchmarks/report_trajectory.py", "22"),
    ("benchmarks/bench_block_size_sweep.py", "22"),
    ("benchmarks/results/*.json", "22"),
)


def _text_files() -> list[str]:
    """Repository-relative paths of the files git tracks or would track."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"],
            cwd=REPO, check=True, capture_output=True, text=True,
        ).stdout.split("\0")
    except (OSError, subprocess.CalledProcessError):
        # Not a git checkout: everything but caches and VCS metadata.
        skip = {".git", "__pycache__", ".hypothesis", ".benchmarks"}
        listed = [
            str(p.relative_to(REPO)) for p in REPO.rglob("*")
            if p.is_file() and not skip & set(p.relative_to(REPO).parts)
        ]
    own = Path(__file__).resolve().relative_to(REPO).as_posix()
    return [name for name in listed if name and name != own
            and (REPO / name).is_file()]


def _under(name: str, row: Gone) -> bool:
    parts = name.split("/")
    if any(fnmatch(part, ex) for part in parts for ex in row.exclude):
        return False
    return any(p == "." or name == p or name.startswith(p.rstrip("/") + "/")
               for p in row.paths)


def test_nothing_deleted_grows_back():
    patterns = [re.compile(row.pattern) for row in ROWS]
    for row, pattern in zip(ROWS, patterns):
        assert pattern.search(row.sample), f"cannot fail: {row}"
        assert all((REPO / p).exists() for p in row.paths), row
    found = []
    for name in _text_files():
        searched = [(row, pattern) for row, pattern in zip(ROWS, patterns)
                    if _under(name, row)]
        if not searched:
            continue
        text = (REPO / name).read_text(encoding="utf-8", errors="ignore")
        for row, pattern in searched:
            if not pattern.search(text):
                continue
            for number, line in enumerate(text.splitlines(), 1):
                if pattern.search(line):
                    found.append(f"{name}:{number}: {line.strip()} "
                                 f"(deleted in PR {row.pr}: {row.reason})")
    for glob, pr in ABSENT:
        found += [f"{p.relative_to(REPO)} exists (deleted in PR {pr})"
                  for p in REPO.glob(glob)]
    assert not found, "\n".join(found)
