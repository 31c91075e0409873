"""Human-readable rendering of maintenance plans and traces.

Turns a :class:`~repro.core.plan.PlanTrace` into an ASCII timeline: one
row per (possibly bucketed) time step, showing the refresh-cost backlog as
a bar against the constraint ``C`` and marking which delta tables each
action flushed.  Asymmetric plans become visually obvious: the cheap table
flushes often (many small marks), the batch-friendly one rarely (sparse
marks preceded by long backlog build-ups).
"""

from __future__ import annotations

from repro.core.plan import PlanTrace
from repro.core.problem import ProblemInstance
from repro.obs import slo

_BAR_WIDTH = 40

#: A timeline shows at most this many rows; a longer horizon is bucketed.
TIMELINE_ROWS = 40


def render_trace_timeline(
    problem: ProblemInstance,
    trace: PlanTrace,
    table_names: tuple[str, ...] | None = None,
) -> str:
    """An ASCII timeline of one trace.

    At most :data:`TIMELINE_ROWS` rows are shown; longer horizons are
    bucketed and each row then summarizes its bucket (peak backlog, union
    of flushed tables).  ``table_names`` labels the action marks (defaults
    to ``T0, T1, ...``).
    """
    steps = problem.horizon + 1
    names = (
        tuple(table_names)
        if table_names is not None
        else tuple(f"T{i}" for i in range(problem.n))
    )
    if len(names) != problem.n:
        raise ValueError(
            f"need {problem.n} table names, got {len(names)}"
        )
    bucket = max(1, -(-steps // TIMELINE_ROWS))  # ceil division
    # Bucketing invariant (regression-tested for indivisible horizons in
    # tests/core/test_report.py): ceil-division buckets cover every step
    # exactly once -- the final row summarizes the shorter tail bucket when
    # ``steps % bucket != 0``, including the forced refresh at t = horizon
    # -- and ceil(steps / bucket) rows never exceed ``TIMELINE_ROWS``.
    lines = [
        f"timeline (C = {problem.limit:.0f}; '#' = backlog as share of C; "
        f"marks = tables flushed; bucket = {bucket} step(s))",
    ]
    for start in range(0, steps, bucket):
        end = min(start + bucket, steps)
        peak = max(
            problem.refresh_cost(trace.pre_states[t])
            for t in range(start, end)
        )
        flushed = sorted(
            {
                names[i]
                for t in range(start, end)
                for i in range(problem.n)
                if trace.plan.actions[t][i] > 0
            }
        )
        cost = sum(trace.action_costs[start:end])
        share = 0.0 if problem.limit == 0 else min(1.0, peak / problem.limit)
        bar = "#" * round(share * _BAR_WIDTH)
        marks = f" flush[{','.join(flushed)}] cost={cost:.0f}" if flushed else ""
        lines.append(
            f"t={start:>5d} |{bar:<{_BAR_WIDTH}}|{marks}"
        )
    lines.append(
        f"total cost {trace.total_cost:.0f} over {steps} steps; "
        f"{trace.action_count} actions; peak backlog "
        f"{trace.peak_refresh_cost:.0f} <= C"
    )
    return "\n".join(lines)


def compare_traces(
    problem: ProblemInstance, traces: dict[str, PlanTrace]
) -> str:
    """A side-by-side summary table of several traces on one instance."""
    if not traces:
        raise ValueError("need at least one trace to compare")
    best = min(t.total_cost for t in traces.values())
    header = (
        f"{'plan':<14s} {'total cost':>12s} {'vs best':>8s} "
        f"{'actions':>8s} {'cost/mod':>10s} {'peak':>8s}"
    )
    lines = [header, "-" * len(header)]
    for name, trace in traces.items():
        ratio = trace.total_cost / best if best > 0 else 1.0
        lines.append(
            f"{name:<14s} {trace.total_cost:>12.1f} {ratio:>8.3f} "
            f"{trace.action_count:>8d} "
            f"{trace.cost_per_modification():>10.3f} "
            f"{trace.peak_refresh_cost:>8.1f}"
        )
    return "\n".join(lines)


def slo_summary(
    problem: ProblemInstance,
    traces: dict[str, PlanTrace],
) -> str:
    """Per-policy refresh-SLO summary over finished traces.

    For every step the *pre-action* state is the moment of truth: had a
    refresh been demanded right then, its cost ``f(s_t)`` must fit the
    constraint ``C``.  The table reports, per trace, how many steps
    breached the deadline (cost > ``C``), how many came within the
    near-breach band (cost >= ``slo.NEAR_FRACTION * C``), and the worst
    margin.  Classification is :func:`repro.obs.slo.classify`, which a
    live view-round's verdict shares (:func:`repro.ivm.governor.verdict`).
    """
    if not traces:
        raise ValueError("need at least one trace to summarize")
    limit = problem.limit
    header = (
        f"{'plan':<14s} {'steps':>7s} {'breaches':>9s} {'near':>6s} "
        f"{'min margin':>11s} {'worst cost':>11s}"
    )
    lines = [
        f"SLO: refresh-deadline margin C - f(s_t) at each step "
        f"(C = {limit:.1f}; near-breach >= {slo.NEAR_FRACTION:.0%} of C)",
        header,
        "-" * len(header),
    ]
    for name, trace in traces.items():
        costs = [problem.refresh_cost(pre) for pre in trace.pre_states]
        kinds = [slo.classify(limit, cost) for cost in costs]
        breaches = sum(1 for k in kinds if k == slo.BREACH)
        near = sum(1 for k in kinds if k == slo.NEAR_BREACH)
        worst = max(costs) if costs else 0.0
        lines.append(
            f"{name:<14s} {len(costs):>7d} {breaches:>9d} {near:>6d} "
            f"{limit - worst:>+11.1f} {worst:>11.1f}"
        )
    return "\n".join(lines)
