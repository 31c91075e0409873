"""Aggregate ``benchmarks/results/*.json`` into a perf-trajectory dashboard.

Every benchmark persists ``{name, params, metrics, wall_time_s}`` (see
``benchmarks/_report.py``); this script folds the whole directory into
one markdown (and optionally HTML) dashboard:

* a **wall-time table** across all benchmarks -- the headline trajectory;
* a **key-metric table** (planner expansions, engine row volume, block
  fill, IVM flushes, SLO breaches) so a wall-time swing can be traced to
  the work volume that moved;
* a **calibration table** (cost-model residuals, drift alerts) for runs
  that traced planner decisions (``planner.calibration.*`` metrics);
* a **top-operators table** folding every benchmark's per-operator
  ``profile`` section (rows, simulated and wall cost per operator kind)
  -- which plan operators the whole suite actually spends on;
* per-benchmark parameter lines for context.

CI runs it in the benchmark-smoke job and uploads the dashboard as a
workflow artifact, so the perf trajectory is diffable PR-to-PR: download
two artifacts, ``diff`` the markdown.

Usage::

    PYTHONPATH=src python benchmarks/report_trajectory.py \
        [--results benchmarks/results] [--out trajectory.md] [--html trajectory.html]

With no ``--out``/``--html`` the markdown goes to stdout.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path
from typing import Any, Iterable

RESULTS_DIR = Path(__file__).parent / "results"

#: Metrics promoted into the cross-benchmark key-metric table, with the
#: snapshot field to read and a short column label.
KEY_METRICS: tuple[tuple[str, str, str], ...] = (
    ("astar.expanded", "value", "A* expanded"),
    ("engine.rows_out", "value", "rows out"),
    ("engine.block.blocks", "value", "blocks"),
    ("engine.block.fill", "mean", "fill (mean)"),
    ("ivm.flushes", "value", "flushes"),
    ("ivm.modifications_applied", "value", "mods applied"),
    ("simulator.steps", "value", "sim steps"),
    ("slo.breaches", "value", "SLO breaches"),
)


def load_results(results_dir: str | Path) -> list[dict]:
    """Parse every ``*.json`` result, sorted by benchmark name.

    Files that do not look like benchmark results (missing ``name``) are
    skipped with a warning on stderr rather than failing the dashboard.
    """
    results = []
    for path in sorted(Path(results_dir).glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"[trajectory] skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if not isinstance(payload, dict) or "name" not in payload:
            print(
                f"[trajectory] skipping {path.name}: not a benchmark result",
                file=sys.stderr,
            )
            continue
        results.append(payload)
    return sorted(results, key=lambda r: r["name"])


def _metric_value(metrics: dict, name: str, field: str) -> Any:
    state = metrics.get(name)
    if not isinstance(state, dict):
        return None
    return state.get(field)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.3f}" if abs(value) < 1000 else f"{value:,.0f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _markdown_table(headers: list[str], rows: Iterable[list[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def build_dashboard(results: list[dict]) -> str:
    """The whole dashboard as one markdown document."""
    lines = [
        "# Benchmark trajectory",
        "",
        f"{len(results)} benchmark result(s) aggregated from "
        "`benchmarks/results/*.json`.  Regenerate with "
        "`PYTHONPATH=src python benchmarks/report_trajectory.py`.",
        "",
        "## Wall time",
        "",
    ]
    wall_rows = []
    for result in results:
        wall = result.get("wall_time_s")
        params = result.get("params") or {}
        param_text = (
            ", ".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"
        )
        if len(param_text) > 80:
            param_text = param_text[:77] + "..."
        wall_rows.append(
            [
                result["name"],
                _fmt(wall if wall is None else float(wall)),
                param_text,
            ]
        )
    lines += _markdown_table(["benchmark", "wall time (s)", "params"], wall_rows)

    lines += ["", "## Key metrics", ""]
    headers = ["benchmark"] + [label for _, _, label in KEY_METRICS]
    metric_rows = []
    for result in results:
        metrics = result.get("metrics") or {}
        metric_rows.append(
            [result["name"]]
            + [
                _fmt(_metric_value(metrics, name, field))
                for name, field, _ in KEY_METRICS
            ]
        )
    lines += _markdown_table(headers, metric_rows)

    calib_rows = []
    for result in results:
        metrics = result.get("metrics") or {}
        samples = _metric_value(metrics, "planner.calibration.samples", "value")
        if not samples:
            continue
        calib_rows.append(
            [
                result["name"],
                _fmt(samples),
                _fmt(
                    _metric_value(
                        metrics, "planner.decisions.emitted", "value"
                    )
                ),
                _fmt(
                    _metric_value(metrics, "planner.calibration.abs_err_ms", "p50")
                ),
                _fmt(
                    _metric_value(metrics, "planner.calibration.abs_err_ms", "p95")
                ),
                _fmt(
                    _metric_value(metrics, "planner.calibration.rel_err", "p50")
                ),
                _fmt(
                    _metric_value(metrics, "planner.calibration.rel_err", "p95")
                ),
                _fmt(
                    _metric_value(metrics, "planner.calibration.residual", "mean")
                ),
                _fmt(
                    _metric_value(
                        metrics, "planner.calibration.drift_alerts", "value"
                    )
                ),
            ]
        )
    if calib_rows:
        lines += [
            "",
            "## Calibration",
            "",
            "Cost-model calibration residuals (`actual - predicted` per "
            "flush) from runs that traced planner decisions — a drifting "
            "p95 here means the `f_i(k)` tables no longer match the "
            "simulated engine.",
            "",
        ]
        lines += _markdown_table(
            [
                "benchmark",
                "samples",
                "decisions",
                "abs err p50 (ms)",
                "abs err p95 (ms)",
                "rel err p50",
                "rel err p95",
                "residual mean (ms)",
                "drift alerts",
            ],
            calib_rows,
        )

    operators: dict[str, dict[str, float]] = {}
    profiled_queries = 0
    for result in results:
        profile = result.get("profile") or {}
        profiled_queries += profile.get("queries", 0)
        for kind, entry in (profile.get("operators") or {}).items():
            totals = operators.setdefault(
                kind, {"nodes": 0, "rows_out": 0, "sim_ms": 0.0, "wall_ms": 0.0}
            )
            for key in totals:
                totals[key] += entry.get(key, 0)
    if operators:
        lines += [
            "",
            "## Top operators",
            "",
            f"Per-operator attribution folded over {profiled_queries:,} "
            "profiled queries (see `profile` in each result JSON).",
            "",
        ]
        op_rows = [
            [
                kind,
                _fmt(int(totals["nodes"])),
                _fmt(int(totals["rows_out"])),
                _fmt(totals["sim_ms"]),
                _fmt(totals["wall_ms"]),
            ]
            for kind, totals in sorted(
                operators.items(), key=lambda kv: -kv[1]["sim_ms"]
            )
        ]
        lines += _markdown_table(
            ["operator", "nodes", "rows out", "sim ms", "wall ms"], op_rows
        )

    total_wall = sum(
        float(r["wall_time_s"])
        for r in results
        if r.get("wall_time_s") is not None
    )
    lines += [
        "",
        f"Total recorded wall time: **{total_wall:,.2f} s** across "
        f"{len(results)} benchmark(s).",
        "",
    ]
    return "\n".join(lines)


def render_html(markdown: str, title: str = "Benchmark trajectory") -> str:
    """A dependency-free HTML rendering of the dashboard's tables.

    Understands exactly the subset :func:`build_dashboard` emits
    (headings, paragraphs, pipe tables) -- not a general markdown engine.
    """
    body: list[str] = []
    table: list[str] = []

    def flush_table() -> None:
        if not table:
            return
        body.append("<table>")
        for i, row in enumerate(table):
            cells = [c.strip() for c in row.strip().strip("|").split("|")]
            tag = "th" if i == 0 else "td"
            body.append(
                "<tr>"
                + "".join(f"<{tag}>{html.escape(c)}</{tag}>" for c in cells)
                + "</tr>"
            )
        body.append("</table>")
        table.clear()

    for line in markdown.splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            if set(stripped) <= {"|", "-", " "}:
                continue  # the separator row
            table.append(stripped)
            continue
        flush_table()
        if stripped.startswith("## "):
            body.append(f"<h2>{html.escape(stripped[3:])}</h2>")
        elif stripped.startswith("# "):
            body.append(f"<h1>{html.escape(stripped[2:])}</h1>")
        elif stripped:
            body.append(f"<p>{html.escape(stripped)}</p>")
    flush_table()
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "th,td{border:1px solid #999;padding:4px 10px;text-align:right}"
        "th:first-child,td:first-child{text-align:left}</style>"
        "</head><body>" + "\n".join(body) + "</body></html>\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="aggregate benchmarks/results/*.json into a dashboard"
    )
    parser.add_argument(
        "--results",
        default=str(RESULTS_DIR),
        help="results directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--out", help="write the markdown dashboard here (default: stdout)"
    )
    parser.add_argument("--html", help="also write an HTML rendering here")
    args = parser.parse_args(argv)

    results = load_results(args.results)
    if not results:
        print(f"error: no benchmark results under {args.results!r}", file=sys.stderr)
        return 1
    markdown = build_dashboard(results)
    if args.out:
        Path(args.out).write_text(markdown + "\n")
        print(f"[trajectory] wrote {args.out}", file=sys.stderr)
    else:
        print(markdown)
    if args.html:
        Path(args.html).write_text(render_html(markdown))
        print(f"[trajectory] wrote {args.html}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
