"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the contract later changes are
measured with; this module is the same vocabulary in importable form, and the
``--quick`` self-test fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed the pinned values in ``pins.json`` were recorded at.
DEFAULT_SEED = 11

#: name -> why it was chosen (one line each; mirrored in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "plan_sweep": (
        "core does ~100% of the timed work (A*, ADAPT, ONLINE, NAIVE, "
        "RECEDING over the Fig-6/Fig-7/n=3 grids) and engine/ivm none: "
        "a planner change shows here and nowhere else"
    ),
    "maintain_trace": (
        "TPC-R join-aggregate maintenance trace, telemetry off: small "
        "delta batches, index probes, writes beside snapshot reads; "
        "engine.update + ivm.execute + ivm.refresh, planner ~2%"
    ),
    "maintain_trace_obs": (
        "byte-identical inputs to maintain_trace with every telemetry "
        "sink on: a telemetry change must move this and leave "
        "maintain_trace alone"
    ),
    "multiview_round": (
        "1200 single-table views under one coordinator: per-view "
        "dispatch, shared scan, fingerprint suppression and the idle "
        "fast path dominate; engine delta-joins are tiny"
    ),
    "query_scan": (
        "full-table queries through the same engine operators with full "
        "blocks and a large hash build: vectorised kernels should win "
        "here and may lose on maintain_trace; no ivm, no core"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    about: str
    bound: float | None = None  # end-to-end only: share it may worsen by
    exact: bool = False  # per-layer only: must repeat bit-for-bit per seed


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "data load, index build, view materialisation and cost-curve "
           "calibration before the timed region (median over passes, at "
           "nominal speed)", 0.25),
    Metric("wall_s", "s", "lower",
           "timed region at the reference kernel's nominal speed: sum over "
           "its segments of the median pass", 0.25),
    Metric("throughput_ops_s", "op/s", "higher",
           "the workload's fixed op count / wall_s", 0.25),
    Metric("latency_p50_ms", "ms", "lower",
           "median wall of the workload's latency operation", 0.25),
    Metric("latency_p90_ms", "ms", "lower",
           "90th percentile of the same samples", 0.25),
    Metric("sim_cost_ms", "sim_ms", "lower",
           "the paper's objective: simulated maintenance/query cost; "
           "repeats exactly for one seed", 0.02),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the measuring process", 0.10),
)

#: The eleven OperationCounter fields.
CHARGE_FIELDS = (
    "page_reads", "tuple_cpu", "compares", "index_probes", "hash_builds",
    "hash_probes", "row_writes", "index_maintains", "agg_updates",
    "sort_items", "startups",
)
OPERATOR_KINDS = (
    "scan", "filter", "project", "join-build", "join-probe", "aggregate",
    "query",
)


def _per_layer() -> tuple[Metric, ...]:
    def m(name, unit, better, about, exact=False):
        return Metric(name, unit, better, about, exact=exact)

    out = [
        # -- core ------------------------------------------------------
        m("core.astar.plan_s", "s", "lower",
          "wall inside find_optimal_lgm_plan calls made by the harness"),
        m("core.astar.expanded", "count", "lower",
          "A* nodes expanded (AStarResult.expanded)", True),
        m("core.astar.generated", "count", "lower",
          "A* nodes generated (AStarResult.generated)", True),
        m("core.astar.expanded_per_s", "1/s", "higher",
          "expanded / plan_s"),
        m("core.online.decide_us", "us", "lower",
          "simulate_policy(ONLINE) wall per time-step"),
        m("core.naive.decide_us", "us", "lower",
          "simulate_policy(NAIVE) wall per time-step"),
        m("core.receding.decide_us", "us", "lower",
          "simulate_policy(RECEDING) wall per time-step"),
        m("core.adapt.plan_s", "s", "lower", "wall inside adapt_plan"),
        m("core.simulate.steps", "count", "lower",
          "policy time-steps simulated", True),
        # -- engine ----------------------------------------------------
        m("engine.load.s", "s", "lower", "load_tpcr (set-up)"),
        m("engine.index_build.s", "s", "lower", "create_index (set-up)"),
        m("engine.update.s", "s", "lower",
          "write path: wall inside TableUpdater.apply"),
        m("engine.update.rows", "count", "lower",
          "base-table modifications applied", True),
        m("engine.update.us_per_row", "us", "lower",
          "engine.update.s / engine.update.rows"),
        m("engine.execute.s", "s", "lower",
          "wall inside Database.execute (profile roots)"),
        m("engine.execute.queries", "count", "lower",
          "Database.execute calls in the timed region", True),
        m("engine.execute.rows_out", "count", "lower",
          "rows returned by those calls", True),
    ]
    for kind in OPERATOR_KINDS:
        out.append(m(f"engine.op.{kind}.wall_ms", "ms", "lower",
                     f"inclusive wall of {kind} nodes "
                     "(attrib.aggregate_profiles)"))
        out.append(m(f"engine.op.{kind}.rows_out", "count", "lower",
                     f"rows emitted by {kind} nodes", True))
    for field in CHARGE_FIELDS:
        out.append(m(f"engine.charges.{field}", "count", "lower",
                     f"OperationCounter.{field} over the timed region", True))
    out += [
        m("engine.table.versions_per_live_row", "ratio", "lower",
          "partsupp version_count / live_count at end of run", True),
        m("engine.modlog.retained", "count", "lower",
          "ModLog.retained summed over tables at end of run", True),
        # -- ivm -------------------------------------------------------
        m("ivm.materialize.s", "s", "lower",
          "MaterializedView(...) / add_view (set-up)"),
        m("ivm.calibrate.s", "s", "lower",
          "measure_cost_function (set-up)"),
        m("ivm.plan_step.s", "s", "lower",
          "delta pull + policy decision (ViewMaintainer.plan_step)"),
        m("ivm.execute.s", "s", "lower", "ViewMaintainer.execute_planned"),
        m("ivm.fold.s", "s", "lower",
          "ivm.execute.s minus the engine.execute wall inside it"),
        m("ivm.refresh.s", "s", "lower", "forced refreshes"),
        m("ivm.rounds_idle", "count", "higher",
          "ledger rounds with a zero action", True),
        m("ivm.rounds_nonidle", "count", "lower",
          "ledger rounds that flushed", True),
        m("ivm.mods_applied", "count", "lower",
          "modifications folded into views (ledger)", True),
        m("ivm.flushes", "count", "lower", "per-alias flushes (ledger)", True),
        m("ivm.idle_round_us", "us", "lower",
          "wall per idle view-round"),
        m("ivm.coordinator.step.s", "s", "lower",
          "MaintenanceCoordinator.step + refresh"),
        m("ivm.coordinator.us_per_view_round", "us", "lower",
          "coordinator wall / (views x rounds)"),
        m("ivm.skip.fingerprint", "count", "higher",
          "flushes suppressed by the shared-scan fingerprint "
          "(ledger rounds that flushed at zero charge)", True),
        m("ivm.skip.empty", "count", "higher",
          "rounds with an empty backlog (ledger)", True),
        m("ivm.ledger.join_ms", "sim_ms", "lower",
          "simulated join cost over all ledgers", True),
        m("ivm.ledger.agg_ms", "sim_ms", "lower",
          "simulated aggregate-upkeep cost over all ledgers", True),
        m("ivm.refresh_growth_ratio", "ratio", "lower",
          "mean refresh wall of the last half of the episodes / first half"),
        m("ivm.recompute.s", "s", "lower",
          "recompute oracle, outside the timed region"),
        # -- obs -------------------------------------------------------
        m("obs.overhead_ratio", "ratio", "lower",
          "wall_s of maintain_trace_obs / maintain_trace, same run"),
        m("obs.spans", "count", "lower", "spans buffered by the recorder", True),
        m("obs.decisions", "count", "lower", "decision events logged", True),
        m("obs.calibration_samples", "count", "lower",
          "calibration samples tracked", True),
        m("obs.profiles", "count", "lower", "query profiles emitted", True),
        m("obs.us_per_event", "us", "lower",
          "(obs wall - plain wall) / telemetry events"),
        m("obs.export.s", "s", "lower",
          "writing the trace and JSONL dumps, outside the timed region"),
        m("obs.rss_delta_mb", "MiB", "lower",
          "resident growth over the timed region, obs minus plain"),
        # -- bench -----------------------------------------------------
        m("bench.trace_overhead_ratio", "ratio", "lower",
          "traced / untraced wall_s of this workload"),
        m("bench.span_coverage", "ratio", "higher",
          "self time of layer spans / traced wall"),
        m("bench.host_slowdown", "ratio", "lower",
          "reference-kernel sample / its nominal wall, median over the run: "
          "how disturbed the host was (per-layer times are as measured)"),
    ]
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()
