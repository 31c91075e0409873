"""Plain-text table formatting for experiment output.

Every experiment's ``format()`` renders through these helpers so the
benchmark logs (``bench_output.txt``) read like the paper's tables.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: int = 2,
) -> str:
    """Render an aligned ASCII table with a title rule."""
    rendered_rows = [
        [_render_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _render_cell(cell: Any, precision: int) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)
