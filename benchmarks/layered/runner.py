"""One run of one workload: passes, the fold over passes, per-layer metrics.

A *run* is one process.  Inside it the workload is set up afresh and executed
several times (*passes*) until ``--seconds`` of timed region have been
measured.  Inputs are byte-identical across passes, so segment ``i`` of every
pass did the same work.  Each segment's wall is divided by the slowdown the
reference kernel showed beside it (refkernel.py), and the fold takes the
median over passes, segment by segment:

    wall_s = sum_i median_pass ( wall[pass][i] / slowdown[pass][i] )

so a burst that hits one segment of one pass is dropped where it happened
and does not shift the whole pass.  The timings as measured are kept in the
run's ``diagnostics``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

from repro.obs import attrib

from . import catalog
from .refkernel import Reference, slowdown
from .spans import Clock, NullTracer, Tracer
from .stats import exact_mismatches, percentile, same
from .workloads import BY_NAME, Checks, current_rss_mb

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
#: Stop starting passes after this much process time, whatever --seconds says.
HARD_STOP_S = 140.0


def one_pass(
    name: str, seed: int, quick: bool, traced: bool, rep: int,
    oracle: bool, fault: str | None, reference: Reference,
) -> dict:
    """Set up, run and check one pass; returns plain data only.

    ``walls`` are the segments as measured; ``at_nominal`` the same divided
    by the reference kernel's slowdown beside each (refkernel.py).
    """
    gc.collect()  # the previous pass's database is garbage by now
    tracer = Tracer(name, rep) if traced else NullTracer()
    workload = BY_NAME[name](seed, quick, tracer, fault)
    checks = Checks(oracle)
    clock = Clock(reference)
    before = reference.sample()
    start = time.perf_counter()
    with tracer.span("setup"):
        workload.setup()
    setup_s = time.perf_counter() - start
    setup_slowdown = slowdown((before + reference.sample()) / 2)
    gc.collect()  # before the timed region; GC stays on inside it
    rss_before = current_rss_mb()
    with tracer.span("timed"):
        workload.run(clock, checks)
    clock.stop()
    rss_delta = current_rss_mb() - rss_before
    out = workload.outcome()
    slowdowns = clock.slowdowns()
    out.update(
        setup_s=setup_s / setup_slowdown,
        walls=clock.walls,
        at_nominal=[w / s for w, s in zip(clock.walls, slowdowns)],
        slowdown=statistics.median(slowdowns),
        latency_idx=clock.latency_idx,
        rss_delta_mb=rss_delta,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
    )
    if traced:
        out["layer"] = _layer_metrics(workload, tracer, out)
        out["spans"] = tracer.spans
    return out


def _layer_metrics(workload, tracer: Tracer, out: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer idles)."""
    layer = {m.name: 0.0 for m in catalog.PER_LAYER}
    layer.update(out["exact"])
    total = tracer.total

    plan_s = total("core.astar")
    layer["core.astar.plan_s"] = plan_s
    if plan_s:
        layer["core.astar.expanded_per_s"] = layer["core.astar.expanded"] / plan_s
    for policy, steps in out.get("steps_by_policy", {}).items():
        if steps and policy != "adapt":
            layer[f"core.{policy}.decide_us"] = (
                1e6 * total(f"core.simulate.{policy}") / steps
            )
    layer["core.adapt.plan_s"] = total("core.adapt")

    layer["engine.load.s"] = total("engine.load")
    layer["engine.index_build.s"] = total("engine.index_build")
    layer["engine.update.s"] = total("engine.update")
    if layer["engine.update.rows"]:
        layer["engine.update.us_per_row"] = (
            1e6 * layer["engine.update.s"] / layer["engine.update.rows"]
        )
    profiles = workload.profiles
    layer["engine.execute.s"] = sum(p["wall_ms"] for p, _ in profiles) / 1e3
    layer["engine.execute.queries"] = len(profiles)
    layer["engine.execute.rows_out"] = sum(p["rows"] for p, _ in profiles)
    operators = attrib.aggregate_profiles([p for p, _ in profiles])["operators"]
    for kind in catalog.OPERATOR_KINDS:
        node = operators.get(kind, {})
        layer[f"engine.op.{kind}.wall_ms"] = node.get("wall_ms", 0.0)
        layer[f"engine.op.{kind}.rows_out"] = node.get("rows_out", 0)

    layer["ivm.materialize.s"] = total("ivm.materialize")
    layer["ivm.calibrate.s"] = total("ivm.calibrate")
    layer["ivm.plan_step.s"] = total("ivm.plan_step")
    execute_s = total("ivm.execute") + total("ivm.execute.idle")
    layer["ivm.execute.s"] = execute_s
    if execute_s:
        layer["ivm.fold.s"] = execute_s - sum(
            p["wall_ms"] for p, span in profiles if span == "ivm.execute"
        ) / 1e3
    layer["ivm.refresh.s"] = total("ivm.refresh")
    coordinator_s = total("ivm.coordinator.step") + total("ivm.coordinator.idle")
    layer["ivm.coordinator.step.s"] = coordinator_s
    if coordinator_s:
        layer["ivm.coordinator.us_per_view_round"] = (
            1e6 * coordinator_s / out["ops"]  # op = one view-round
        )
    layer["ivm.recompute.s"] = total("ivm.recompute")
    layer.update(workload.extra_layer)

    traced_wall = sum(out["walls"])
    covered = sum(
        self_s for name, self_s in tracer.self_times(under="timed").items()
        if name != "ivm.recompute"  # the oracle is not part of the workload
    )
    layer["bench.span_coverage"] = covered / traced_wall
    return layer


def fold_passes(passes: list[dict]) -> dict:
    """Per-segment medians over passes, and what follows from them."""
    typical = [
        statistics.median(segment)
        for segment in zip(*(p["at_nominal"] for p in passes))
    ]
    wall_s = sum(typical)
    latencies = [1e3 * typical[i] for i in passes[0]["latency_idx"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": wall_s,
        "throughput_ops_s": passes[0]["ops"] / wall_s,
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "sim_cost_ms": passes[0]["sim_cost_ms"],
        "latency_samples_ms": latencies,
    }


def load_pins() -> dict:
    try:
        with open(PINS_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    quick: bool = False, fault: str | None = None,
) -> dict:
    """One run: passes until ``seconds`` of timed region are measured."""
    begun = time.perf_counter()
    variants = [(name, False)]
    if trace:
        variants.append((name, True))
        if name == "maintain_trace_obs":
            # obs.overhead_ratio needs the telemetry-off twin from this run.
            variants.append(("maintain_trace", False))
    passes: dict[tuple, list[dict]] = {v: [] for v in variants}
    reference = Reference()
    min_passes = 1 if quick else (2 if trace else 3)
    measured = 0.0
    rep = 0
    while True:
        for variant in variants:
            done = one_pass(
                variant[0], seed, quick, traced=variant[1], rep=rep,
                oracle=(rep == 0), fault=fault, reference=reference,
            )
            passes[variant].append(done)
            measured += sum(done["walls"])
        rep += 1
        enough = (
            quick or measured >= seconds
            or time.perf_counter() - begun > HARD_STOP_S
        )
        if rep >= min_passes and enough:
            break

    plain = passes[name, False]
    folded = fold_passes(plain)
    first = plain[0]
    attempted = first["attempted"]
    every_pass = [p for done in passes.values() for p in done]
    failed = sum(p["failed"] for p in every_pass)
    failures = [f for p in every_pass for f in p["failures"]]

    def check(ok: bool, reason: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(reason)

    for i, other in enumerate(plain[1:], start=1):
        differing = exact_mismatches(other["exact"], first["exact"])
        if not same(other["sim_cost_ms"], first["sim_cost_ms"]):
            differing.append("sim_cost_ms")
        check(not differing, f"pass {i} differs from pass 0 on {differing}")
    pinned = load_pins().get(name)
    if pinned and seed == catalog.DEFAULT_SEED and not quick and not fault:
        got = dict(first["exact"], sim_cost_ms=first["sim_cost_ms"])
        differing = [k for k in exact_mismatches(got, pinned) if k in pinned]
        check(not differing, f"pinned values differ on {differing}")

    samples = folded.pop("latency_samples_ms")
    diagnostics = {
        # The timed region as measured, before the reference division.
        "wall_s_measured_median": statistics.median(sum(p["walls"]) for p in plain),
        "wall_s_measured_segment_min": sum(
            min(segment) for segment in zip(*(p["walls"] for p in plain))
        ),
        "host_slowdown_per_pass": [p["slowdown"] for p in plain],
    }
    end_to_end = dict(
        folded,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "passes": len(plain),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "latency_samples_ms": samples,
        "exact": first["exact"],
        "diagnostics": diagnostics,
    }
    if trace:
        traced = passes[name, True]
        # The layer split and spans of the fastest traced pass.
        fastest = min(traced, key=lambda p: sum(p["walls"]))
        layer = dict(fastest["layer"])
        traced_wall = fold_passes(traced)["wall_s"]
        layer["bench.trace_overhead_ratio"] = traced_wall / folded["wall_s"]
        layer["bench.host_slowdown"] = statistics.median(
            p["slowdown"] for p in plain + traced
        )
        if name == "maintain_trace_obs":
            twin = passes["maintain_trace", False]
            twin_wall = fold_passes(twin)["wall_s"]
            layer["obs.overhead_ratio"] = folded["wall_s"] / twin_wall
            events = sum(
                layer[k] for k in ("obs.spans", "obs.decisions",
                                   "obs.calibration_samples", "obs.profiles")
            )
            layer["obs.us_per_event"] = (
                1e6 * (folded["wall_s"] - twin_wall) / events
            )
            layer["obs.rss_delta_mb"] = statistics.median(
                p["rss_delta_mb"] for p in plain
            ) - statistics.median(p["rss_delta_mb"] for p in twin)
        result["per_layer"] = layer
        result["spans"] = fastest["spans"]
    return result


def contract_line(result: dict) -> str:
    """The last line of standard output the driver reads."""
    if result["trace"]:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
            for m in catalog.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
            for m in catalog.END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def write_run(result: dict, path: str) -> None:
    """Write the run's full result to ``path``; a traced run's spans go to
    ``path`` + ``.spans.jsonl``, one span per line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        with open(path + ".spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
