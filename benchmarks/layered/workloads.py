"""The five workloads: set-up, timed region, correctness checks.

Closed loop, one client, one thread: a step's modifications are applied,
then the maintenance round runs, then the next step.  Every call into a
layer is wrapped in a harness span (``spans.Tracer``); the untraced passes
get a no-op tracer.  Failures are routed into ``Checks`` -- never an
exception that would hide the other workloads.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import shutil
import tempfile
import time
from contextlib import ExitStack, contextmanager

from repro import obs
from repro.core.adapt import adapt_plan
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Policy, PolicyError
from repro.core.problem import ProblemInstance
from repro.core.receding import RecedingHorizonPolicy
from repro.core.simulator import simulate_policy
from repro.engine.block import DEFAULT_BLOCK_SIZE
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, JoinSpec, QuerySpec
from repro.experiments import common
from repro.experiments.three_way import THREE_WAY_PATTERN
from repro.ivm.calibration import measure_cost_function
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.view import MaterializedView
from repro.obs import attrib, decisions
from repro.obs import calibration as obs_calibration
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import (
    NationRegionUpdater,
    PartSuppCostUpdater,
    SupplierNationUpdater,
)
from repro.workloads.arrivals import (
    FAST_STABLE,
    FAST_UNSTABLE,
    SLOW_STABLE,
    SLOW_UNSTABLE,
    periodic_arrivals,
    stochastic_arrivals,
    uniform_arrivals,
)

from .catalog import CHARGE_FIELDS
from .spans import Clock

STREAM_CLASSES = (SLOW_STABLE, SLOW_UNSTABLE, FAST_STABLE, FAST_UNSTABLE)
#: The Fig-7 experiment's own stream seeds: A* effort is chaotic in the
#: arrival sequence (+-20% expansions across stream seeds measured), so the
#: planned streams stay fixed and ``--seed`` feeds only streams that are
#: simulated, never searched.
FIG7_STREAM_SEED = 707
FIG7_LIMIT_FACTOR = 20.0 / 12.0
MAX_FAILURES_KEPT = 20


class Checks:
    """Counts operations checked and the ones that failed."""

    def __init__(self, oracle: bool):
        #: Run the expensive recompute oracles in this pass.
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(reason)


def same_contents(actual: dict, expected: dict) -> bool:
    """View contents equal, floats within rel 1e-9.

    Float SUM views drift by ulps across delete/re-insert; that is not a
    maintenance bug, so values compare numerically, keys exactly.
    """
    if actual.keys() != expected.keys():
        return False
    for key, value in actual.items():
        other = expected[key]
        if isinstance(value, float) or isinstance(other, float):
            if not math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif value != other:
            return False
    return True


# ----------------------------------------------------------------------
# Shared set-up pieces (each call into a layer gets its span)
# ----------------------------------------------------------------------


def build_paper_db(
    tr, scale: float, block_size: int = DEFAULT_BLOCK_SIZE
) -> Database:
    """TPC-R tables with the paper's physical design (PartSupp unindexed)."""
    db = Database(workers=0, block_size=block_size)
    with tr.span("engine.load"):
        load_tpcr(db, scale=scale, seed=common.DEFAULT_SEED)
    with tr.span("engine.index_build"):
        db.table("supplier").create_index("suppkey")
        db.table("nation").create_index("nationkey")
        db.table("region").create_index("regionkey")
    return db


def paper_view(tr, db: Database) -> MaterializedView:
    with tr.span("ivm.materialize"):
        return MaterializedView("paper_view", db, common.paper_view_spec())


def calibrate(tr, scale: float, update_seed: int, sweeps: dict[str, tuple]):
    """Measure cost curves on a scratch database; returns tabulated costs.

    With ``update_seed=991`` and ``CALIBRATION_BATCHES`` this is
    ``experiments.common.calibrated_costs`` step for step, spans added.
    """
    db = build_paper_db(tr, scale)
    view = paper_view(tr, db)
    updaters = {
        "PS": PartSuppCostUpdater(db.table("partsupp"), seed=update_seed),
        "S": SupplierNationUpdater(db.table("supplier"), seed=update_seed + 1),
        "N": NationRegionUpdater(db.table("nation"), seed=update_seed + 1),
    }
    curves = {}
    for alias, batches in sweeps.items():
        with tr.span("ivm.calibrate"):
            curves[alias] = measure_cost_function(
                view, alias, batches, updaters[alias]
            ).tabulated
    return curves


def two_table_costs(tr, scale: float):
    curves = calibrate(
        tr, scale, 991,
        {"PS": common.CALIBRATION_BATCHES, "S": common.CALIBRATION_BATCHES},
    )
    return curves["PS"], curves["S"]


# ----------------------------------------------------------------------
# Base class
# ----------------------------------------------------------------------


class Workload:
    """One pass = ``setup()``, then ``run()``, then ``outcome()``."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, quick: bool, tr, fault: str | None = None):
        self.seed = seed
        self.size = self.sizes["quick" if quick else "full"]
        self.tr = tr
        self.fault = fault
        #: (profile dict, innermost harness span) per profiled query.
        self.profiles: list[tuple[dict, str | None]] = []
        self.extra_layer: dict[str, float] = {}
        self.oracle_charges = dict.fromkeys(CHARGE_FIELDS, 0)

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, clock: Clock, checks: Checks) -> None:
        raise NotImplementedError

    def outcome(self) -> dict:
        """``{"sim_cost_ms", "ops", "exact": {per-layer exact counts}}``."""
        raise NotImplementedError

    @contextmanager
    def sinks(self):
        """Telemetry installed around the timed region.

        Traced passes install the existing profile sink (the source of the
        ``engine.op.*`` split); untraced passes install nothing.
        """
        if not self.tr.enabled:
            yield
            return
        previous = attrib.set_profile_sink(self._take_profile)
        try:
            yield
        finally:
            attrib.set_profile_sink(previous)

    def _take_profile(self, profile: dict) -> None:
        self.profiles.append((profile, self.tr.current()))

    @contextmanager
    def oracle_scope(self, round_id: int | None = None):
        """An oracle check: its own span, every telemetry sink detached and
        its charges set aside, so a pass that checks counts and emits
        exactly what a pass that does not check counts and emits."""
        recorder = obs.get_recorder()
        obs.install(None)
        sink = attrib.set_profile_sink(None)
        before = self.db.counter.snapshot()
        try:
            with self.tr.span("ivm.recompute", round_id):
                yield
        finally:
            after = self.db.counter.snapshot()
            for f in CHARGE_FIELDS:
                self.oracle_charges[f] += after[f] - before[f]
            attrib.set_profile_sink(sink)
            obs.install(recorder)

    def charges_since(self, before: dict) -> dict[str, int]:
        """Counter fields charged since ``before``, oracles excluded."""
        after = self.db.counter.snapshot()
        return {
            f: after[f] - before[f] - self.oracle_charges[f] for f in CHARGE_FIELDS
        }

    def engine_counts(self) -> dict:
        """The exact engine.* counts every database workload reports."""
        partsupp = self.db.table("partsupp")
        out = {f"engine.charges.{f}": n for f, n in self.charges.items()}
        out["engine.table.versions_per_live_row"] = (
            partsupp.version_count() / partsupp.live_count
        )
        out["engine.modlog.retained"] = sum(
            t.history.retained for t in self.db.tables.values()
        )
        return out

    def run(self, clock: Clock, checks: Checks) -> None:
        with self.sinks():
            self.timed(clock, checks)


# ----------------------------------------------------------------------
# plan_sweep
# ----------------------------------------------------------------------


class PlanSweep(Workload):
    """Planner-only: every cell builds a fresh ProblemInstance (cold memos)
    and plans or simulates it.  op = one policy time-step decided."""

    name = "plan_sweep"
    sizes = {
        "full": dict(calib_scale=0.01, fig6=tuple(range(100, 1001, 100)),
                     adapt_T0=500, fig7_T=400, seeded_T=1000, three_T=150,
                     receding_T=100),
        "quick": dict(calib_scale=0.002, fig6=(60, 100), adapt_T0=80,
                      fig7_T=60, seeded_T=100, three_T=30, receding_T=20),
    }

    def setup(self) -> None:
        tr, size = self.tr, self.size
        costs2 = two_table_costs(tr, size["calib_scale"])
        limit2 = common.default_limit(costs2)
        three = calibrate(
            tr, size["calib_scale"], 333,
            {"PS": (1, 5, 10, 40, 120), "S": (1, 4, 12, 30), "N": (1, 2, 6, 12)},
        )
        costs3 = (three["PS"], three["S"], three["N"])
        limit3 = (three["S"](30) + three["N"](10)) * 1.15

        #: (group, policy, costs, limit, arrivals); cells of one group plan
        #: the same instance, which is what the OPT <= others check needs.
        self.cells: list[tuple] = []
        for horizon in size["fig6"]:
            arrivals = uniform_arrivals(common.ARRIVAL_MIX, horizon + 1)
            for policy in ("naive", "astar", "adapt", "online"):
                self.cells.append(
                    (f"fig6/T={horizon}", policy, costs2, limit2, arrivals)
                )
        for i, params in enumerate(STREAM_CLASSES):
            arrivals = stochastic_arrivals(
                (params, params), steps=size["fig7_T"] + 1,
                seed=FIG7_STREAM_SEED + i, scale=common.ARRIVAL_MIX,
            )
            for policy in ("naive", "astar", "online"):
                self.cells.append(
                    (f"fig7/{i}", policy, costs2,
                     limit2 * FIG7_LIMIT_FACTOR, arrivals)
                )
        for i, params in enumerate(STREAM_CLASSES):
            arrivals = stochastic_arrivals(
                (params, params), steps=size["seeded_T"] + 1,
                seed=self.seed * 1000 + i, scale=common.ARRIVAL_MIX,
            )
            for policy in ("naive", "online"):
                self.cells.append(
                    (f"seeded/{i}", policy, costs2,
                     limit2 * FIG7_LIMIT_FACTOR, arrivals)
                )
        arrivals = periodic_arrivals(THREE_WAY_PATTERN, size["three_T"] + 1)
        for policy in ("naive", "astar", "online"):
            self.cells.append(("three_way", policy, costs3, limit3, arrivals))
        arrivals = uniform_arrivals(common.ARRIVAL_MIX, size["receding_T"] + 1)
        for policy in ("astar", "receding"):
            self.cells.append(("receding", policy, costs2, limit2, arrivals))

        self.costs: dict[tuple[str, str], float] = {}
        self.steps = {"naive": 0, "online": 0, "receding": 0, "adapt": 0}
        self.expanded = self.generated = self.planned_steps = 0

    def _cell(self, policy: str, costs, limit, arrivals) -> float:
        tr = self.tr
        problem = ProblemInstance(costs, limit, arrivals)
        if policy == "astar":
            with tr.span("core.astar"):
                result = find_optimal_lgm_plan(problem)
            self.expanded += result.expanded
            self.generated += result.generated
            self.planned_steps += problem.horizon + 1
            return result.cost
        if policy == "adapt":
            with tr.span("core.adapt"):
                runner = adapt_plan(problem, self.size["adapt_T0"])
        else:
            runner = {
                "naive": NaivePolicy,
                "online": OnlinePolicy,
                "receding": RecedingHorizonPolicy,
            }[policy]()
        with tr.span(f"core.simulate.{policy}"):
            trace = simulate_policy(problem, runner)
        self.steps[policy] += problem.horizon + 1
        return trace.total_cost

    def timed(self, clock: Clock, checks: Checks) -> None:
        clock.start()
        for group, policy, costs, limit, arrivals in self.cells:
            try:
                self.costs[group, policy] = self._cell(
                    policy, costs, limit, arrivals
                )
            except (PolicyError, ValueError) as exc:
                checks.fail(f"{group}/{policy}: {exc}")
            clock.lap(latency=True)
        for (group, policy), cost in self.costs.items():
            optimum = self.costs.get((group, "astar"))
            # One attempted op per plan; OPT_LGM may cost more than no
            # other plan of the same instance.
            checks.expect(
                optimum is None or optimum <= cost * (1 + 1e-9),
                f"{group}: OPT_LGM {optimum} > {policy} {cost}",
            )

    def outcome(self) -> dict:
        return {
            "sim_cost_ms": sum(self.costs.values()),
            "ops": self.planned_steps + sum(self.steps.values()),
            "steps_by_policy": dict(self.steps),
            "exact": {
                "core.astar.expanded": self.expanded,
                "core.astar.generated": self.generated,
                "core.simulate.steps": sum(self.steps.values()),
            },
        }


# ----------------------------------------------------------------------
# maintain_trace / maintain_trace_obs
# ----------------------------------------------------------------------


class _NeverFlush(Policy):
    """Injected fault: defers forever, so f(s_t) climbs past C."""

    def decide(self, t, pre_state):
        return (0,) * self.n


class MaintainTrace(Workload):
    """The paper's 4-way-join MIN view under ONLINE, telemetry off.
    op = one modification applied and folded."""

    name = "maintain_trace"
    sizes = {
        "full": dict(scale=0.05, calib_scale=0.01, episodes=12, steps=50),
        "quick": dict(scale=0.002, calib_scale=0.002, episodes=2, steps=40),
    }
    MIX = common.ARRIVAL_MIX  # 80 PartSupp + 1 Supplier updates per step

    def _policy(self) -> Policy:
        return _NeverFlush() if self.fault == "bad_policy" else OnlinePolicy()

    def setup(self) -> None:
        tr, size = self.tr, self.size
        costs = two_table_costs(tr, size["calib_scale"])
        self.db = build_paper_db(tr, size["scale"])
        self.view = paper_view(tr, self.db)
        self.ps = PartSuppCostUpdater(self.db.table("partsupp"), seed=self.seed)
        self.su = SupplierNationUpdater(
            self.db.table("supplier"), seed=self.seed + 1
        )
        self.maintainer = ViewMaintainer(
            self.view, costs, common.default_limit(costs), self._policy(),
            scheduled_aliases=common.SCHEDULED_ALIASES,
        )
        self.mods = 0
        self.refresh_walls: list[float] = []
        self.idle_walls: list[float] = []

    def timed(self, clock: Clock, checks: Checks) -> None:
        tr, m = self.tr, self.maintainer
        ps_count, s_count = self.MIX
        steps = self.size["steps"]
        before = self.db.counter.snapshot()
        clock.start()
        for episode in range(self.size["episodes"]):
            m.set_policy(self._policy())
            for t in range(steps):
                round_id = episode * (steps + 1) + t
                with tr.span("engine.update", round_id):
                    self.ps.apply(ps_count)
                    self.su.apply(s_count)
                self.mods += ps_count + s_count
                try:
                    with tr.span("ivm.plan_step", round_id):
                        plan = m.plan_step(t)
                    idle = not any(plan[3])
                    with tr.span(
                        "ivm.execute.idle" if idle else "ivm.execute", round_id
                    ) as span:
                        m.execute_planned(*plan)
                    if idle and span is not None:
                        self.idle_walls.append(span["end"] - span["start"])
                except PolicyError as exc:
                    checks.fail(f"episode {episode} t={t}: {exc}")
                clock.lap()
            with tr.span("ivm.refresh", episode * (steps + 1) + steps):
                m.refresh(steps)
            self.refresh_walls.append(clock.lap(latency=True))
            if checks.oracle:
                if self.fault == "perturb_view" and episode == 0:
                    self.view.apply_insert_rows([(-1.0,)], {"PS.supplycost": 0})
                with self.oracle_scope(episode):
                    expected = self.view.recompute()
                checks.expect(
                    same_contents(self.view.contents(), expected),
                    f"episode {episode}: view contents != recompute()",
                )
                clock.start()
        self.charges = self.charges_since(before)
        # f(s_t) <= C after every unforced round, from the always-on ledger.
        for entry in m.ledger.entries:
            if entry.forced:
                checks.attempted += 1
                continue
            post = tuple(s - a for s, a in zip(entry.pre_state, entry.action))
            checks.expect(
                m.predicted_refresh_cost(post) <= m.limit + 1e-9,
                f"t={entry.t}: f(post)={m.predicted_refresh_cost(post):.3f} "
                f"> C={m.limit:.3f}",
            )

    def outcome(self) -> dict:
        m = self.maintainer
        exact = _ledger_counts([m.ledger], self.db.counter.model)
        exact.update(self.engine_counts())
        exact["engine.update.rows"] = self.mods
        half = len(self.refresh_walls) // 2
        if half:
            self.extra_layer["ivm.refresh_growth_ratio"] = (
                sum(self.refresh_walls[-half:]) / sum(self.refresh_walls[:half])
            )
        if self.idle_walls:
            self.extra_layer["ivm.idle_round_us"] = (
                1e6 * sum(self.idle_walls) / len(self.idle_walls)
            )
        return {
            "sim_cost_ms": m.log.total_actual_cost_ms,
            "ops": self.mods,
            "exact": exact,
        }


def _ledger_counts(ledgers, model) -> dict:
    """The exact ivm.* counts, from the always-on per-view ledgers."""
    out = dict.fromkeys(
        ("ivm.rounds_idle", "ivm.rounds_nonidle", "ivm.mods_applied",
         "ivm.flushes", "ivm.skip.fingerprint", "ivm.skip.empty"), 0
    )
    join_ms = agg_ms = 0.0
    for ledger in ledgers:
        for entry in ledger.entries:
            if any(entry.action):
                out["ivm.rounds_nonidle"] += 1
                # A flush that charged nothing was suppressed by the
                # shared scan's fingerprint (any real flush pays a startup).
                if not entry.charges:
                    out["ivm.skip.fingerprint"] += 1
            else:
                out["ivm.rounds_idle"] += 1
                if not any(entry.pre_state):
                    out["ivm.skip.empty"] += 1
            out["ivm.mods_applied"] += entry.mods_applied
            out["ivm.flushes"] += entry.flushes
        join_ms += ledger.join_ms(model)
        agg_ms += ledger.agg_ms(model)
    out["ivm.ledger.join_ms"] = join_ms
    out["ivm.ledger.agg_ms"] = agg_ms
    return out


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class MaintainTraceObs(MaintainTrace):
    """maintain_trace's inputs with every telemetry sink on."""

    name = "maintain_trace_obs"

    @contextmanager
    def sinks(self):
        with ExitStack() as stack:
            self.recorder = stack.enter_context(obs.recording(trace=True))
            self.decision_log = stack.enter_context(decisions.collecting())
            self.tracker = stack.enter_context(obs_calibration.tracking())
            previous = attrib.set_profile_sink(self._take_profile)
            stack.callback(attrib.set_profile_sink, previous)
            yield

    def outcome(self) -> dict:
        out = super().outcome()
        out["exact"].update({
            "obs.spans": len(self.recorder.trace_events(include_metrics=False)),
            "obs.decisions": len(self.decision_log),
            "obs.calibration_samples": len(self.tracker),
            "obs.profiles": len(self.profiles),
        })
        if self.tr.enabled:
            self.extra_layer["obs.export.s"] = self._export()
        return out

    def _export(self) -> float:
        """Write the trace and the JSONL dumps; returns the wall it took."""
        scratch = tempfile.mkdtemp(prefix=".layered_tmp_", dir=os.getcwd())
        try:
            with self.tr.span("obs.export") as span:
                self.recorder.write_trace(os.path.join(scratch, "trace.jsonl"))
                obs.write_jsonl(
                    (e.to_dict() for e in self.decision_log.events()),
                    os.path.join(scratch, "decisions.jsonl"),
                )
                obs.write_jsonl(
                    (dataclasses.asdict(s) for s in self.tracker.samples()),
                    os.path.join(scratch, "calibration.jsonl"),
                )
                obs.write_jsonl(
                    (p for p, _ in self.profiles),
                    os.path.join(scratch, "profiles.jsonl"),
                )
            return span["end"] - span["start"]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# multiview_round
# ----------------------------------------------------------------------


def _agg(alias: str, table: str, func: str, value: str, *group: str) -> QuerySpec:
    return QuerySpec(
        base_alias=alias,
        base_table=table,
        aggregate=AggregateSpec(func=func, value=col(value), group_by=tuple(group)),
    )


#: (alias, table, updater, spec sensitive to the updated column, spec that
#: is not) -- the fleet of benchmarks/bench_multiview_scale.py.
MULTIVIEW_TABLES = (
    ("PS", "partsupp", PartSuppCostUpdater,
     lambda: _agg("PS", "partsupp", "sum", "PS.supplycost", "PS.suppkey"),
     lambda: _agg("PS", "partsupp", "sum", "PS.availqty", "PS.suppkey")),
    ("S", "supplier", SupplierNationUpdater,
     lambda: _agg("S", "supplier", "count", "S.suppkey", "S.nationkey"),
     lambda: _agg("S", "supplier", "sum", "S.suppkey")),
    ("N", "nation", NationRegionUpdater,
     lambda: _agg("N", "nation", "count", "N.name", "N.regionkey"),
     lambda: _agg("N", "nation", "min", "N.nationkey")),
)


class MultiviewRound(Workload):
    """A fleet of single-table views under one coordinator.
    op = one view-round."""

    name = "multiview_round"
    sizes = {
        "full": dict(scale=0.002, views=400, rounds=12, mods=16, idle=2),
        "quick": dict(scale=0.002, views=4, rounds=3, mods=4, idle=1),
    }

    def setup(self) -> None:
        tr, size = self.tr, self.size
        self.db = Database(workers=0)
        with tr.span("engine.load"):
            load_tpcr(self.db, scale=size["scale"], seed=common.DEFAULT_SEED)
        self.coordinator = MaintenanceCoordinator(self.db, shared_scans=True)
        with tr.span("ivm.materialize"):
            for alias, table, _, sensitive, insensitive in MULTIVIEW_TABLES:
                for i in range(size["views"]):
                    self.coordinator.add_view(ViewConfig(
                        name=f"{table}_{i:04d}",
                        query=sensitive() if i % 2 == 0 else insensitive(),
                        policy=NaivePolicy(),
                        cost_functions=(LinearCost(slope=0.5, setup=2.0),),
                        limit=1.0,  # any non-empty backlog flushes
                        scheduled_aliases=(alias,),
                    ))
        self.updaters = [
            updater(self.db.table(table), seed=self.seed)
            for _, table, updater, _, _ in MULTIVIEW_TABLES
        ]
        self.mods = 0
        self.sim_ms = 0.0
        self.idle_wall = 0.0

    def _coordinate(self, span: str, round_id: int, call) -> float:
        """One coordinator call inside a cost window; returns its wall."""
        with self.db.counter.window() as window:
            start = time.perf_counter()
            with self.tr.span(span, round_id):
                call()
            wall = time.perf_counter() - start
        self.sim_ms += window.elapsed_ms
        return wall

    def timed(self, clock: Clock, checks: Checks) -> None:
        size, co = self.size, self.coordinator
        before = self.db.counter.snapshot()
        clock.start()
        for t in range(size["rounds"]):
            with self.tr.span("engine.update", t):
                # Nation changes every other round, so its views take the
                # idle fast path on the odd ones.
                for updater in self.updaters[: 3 if t % 2 == 0 else 2]:
                    updater.apply(size["mods"])
                    self.mods += size["mods"]
            try:
                self._coordinate("ivm.coordinator.step", t, lambda: co.step(t))
            except PolicyError as exc:
                checks.fail(f"round {t}: {exc}")
            clock.lap(latency=True)
        t = size["rounds"]
        self._coordinate("ivm.coordinator.step", t, lambda: co.refresh(t=t))
        clock.lap()
        for i in range(size["idle"]):
            # Nothing pending anywhere: what one all-idle round costs.
            self.idle_wall += self._coordinate(
                "ivm.coordinator.idle", t + 1 + i, lambda: co.step(t + 1 + i)
            )
            clock.lap()
        self.charges = self.charges_since(before)
        checks.attempted += size["rounds"] + 1 + size["idle"]
        if checks.oracle:
            with self.oracle_scope():
                for name, maintainer in co.iter_maintainers():
                    view = maintainer.view
                    checks.expect(
                        same_contents(view.contents(), view.recompute()),
                        f"view {name}: contents != recompute()",
                    )

    def outcome(self) -> dict:
        size = self.size
        views = len(self.coordinator.views)
        exact = _ledger_counts(
            self.coordinator.ledgers().values(), self.db.counter.model
        )
        exact.update(self.engine_counts())
        exact["engine.update.rows"] = self.mods
        self.extra_layer["ivm.idle_round_us"] = (
            1e6 * self.idle_wall / (views * size["idle"])
        )
        return {
            "sim_cost_ms": self.sim_ms,
            "ops": views * (size["rounds"] + 1 + size["idle"]),
            "exact": exact,
        }


# ----------------------------------------------------------------------
# query_scan
# ----------------------------------------------------------------------


class QueryScan(Workload):
    """Full-table queries, block size 256.  op = one base row read."""

    name = "query_scan"
    sizes = {
        "full": dict(scale=0.1, sweeps=6),
        "quick": dict(scale=0.002, sweeps=2),
    }

    def setup(self) -> None:
        self.db = build_paper_db(self.tr, self.size["scale"], block_size=256)
        # The seed picks the filter constants inside a narrow band: inputs
        # differ per seed, the work stays within a percent.
        rng = random.Random(self.seed)
        self.qty_above = rng.randint(4900, 5100)
        self.cost_below = round(rng.uniform(490.0, 510.0), 2)
        self.specs = (
            common.paper_view_spec(),
            common.two_way_join_spec(),
            # Supplier drives, PartSupp (no index on suppkey) is the hash
            # build side: the large build the maintenance trace never does.
            QuerySpec(
                base_alias="S", base_table="supplier",
                joins=(JoinSpec("PS", "partsupp", "S.suppkey", "suppkey"),),
                aggregate=AggregateSpec(
                    func="sum", value=col("PS.availqty"),
                    group_by=("S.nationkey",),
                ),
            ),
            QuerySpec(
                base_alias="PS", base_table="partsupp",
                filters=(col("PS.availqty") > lit(self.qty_above),
                         col("PS.supplycost") < lit(self.cost_below)),
                projection=("PS.partkey", "PS.suppkey", "PS.supplycost"),
            ),
        )
        self.base_rows = sum(
            self.db.table(spec.base_table).live_count for spec in self.specs
        )
        self.first: list | None = None
        self.sim_ms = 0.0
        self.queries = self.rows_out = 0

    def timed(self, clock: Clock, checks: Checks) -> None:
        db, tr = self.db, self.tr
        before = db.counter.snapshot()
        with db.counter.window() as window:
            clock.start()
            for sweep in range(self.size["sweeps"]):
                results = []
                for spec in self.specs:
                    with tr.span("engine.execute", sweep):
                        results.append(db.execute(spec).rows)
                clock.lap(latency=True)
                self.queries += len(results)
                self.rows_out += sum(len(rows) for rows in results)
                if self.first is None:
                    self.first = results
                for i, rows in enumerate(results):
                    checks.expect(
                        rows == self.first[i],
                        f"sweep {sweep} query {i}: rows != first sweep",
                    )
                clock.start()
        self.sim_ms = window.elapsed_ms
        self.charges = self.charges_since(before)
        if checks.oracle:
            self._independent_checks(checks)

    def _independent_checks(self, checks: Checks) -> None:
        """Two answers recomputed in plain Python from the live rows."""
        partsupp = self.db.table("partsupp")
        qty = partsupp.schema.position("availqty")
        cost = partsupp.schema.position("supplycost")
        live = list(partsupp.live_rows())
        kept = sum(
            1 for r in live
            if r[qty] > self.qty_above and r[cost] < self.cost_below
        )
        checks.expect(
            kept == len(self.first[3]),
            f"filter query: {len(self.first[3])} rows, expected {kept}",
        )
        checks.expect(
            sum(r[qty] for r in live) == sum(row[-1] for row in self.first[2]),
            "SUM(availqty) over the groups != sum over live rows",
        )

    def outcome(self) -> dict:
        exact = self.engine_counts()
        exact["engine.execute.queries"] = self.queries
        exact["engine.execute.rows_out"] = self.rows_out
        return {
            "sim_cost_ms": self.sim_ms,
            "ops": self.size["sweeps"] * self.base_rows,
            "exact": exact,
        }


BY_NAME: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PlanSweep, MaintainTrace, MaintainTraceObs, MultiviewRound,
                QueryScan)
}
