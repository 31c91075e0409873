#!/usr/bin/env python
"""Lint: every metric name emitted in ``src/`` is documented, and vice versa.

The metric catalog in ``docs/observability.md`` is the contract for every
dashboard and scraper pointed at this code; a metric renamed in source
but not in the docs (or documented but no longer emitted) silently rots
that contract.  This script cross-checks the two:

* **emitted names** -- every string constant in ``src/**/*.py`` shaped
  like a dotted metric name in one of the known families (``astar.``,
  ``online.``, ``simulator.``, ``engine.``, ``ivm.``, ``slo.``,
  ``cli.``), collected with :mod:`ast` so multi-line calls and dict-key
  tallies are seen too.
* **documented names** -- the first cell of every catalog table row in
  the docs, split on ``/``, kept verbatim.

Every metric name is a static string, so the two sets compare exactly.
Failures:

* **built at run time** -- an f-string whose leading constant starts a
  metric family (``f"ivm.view.{vid}.rounds"``): its names cannot be
  listed, so neither documented nor linted;
* **undocumented** -- an emitted name the docs do not list;
* **stale** -- a documented name no source emits (a ``<placeholder>``
  row among them: nothing emits a name that is built at run time).

Exit status 0 when the catalog and the source agree, 1 otherwise.
Run from the repository root (CI does)::

    python tools/check_metric_catalog.py
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = ROOT / "docs" / "observability.md"

#: First dotted segments that mark a string as a metric name.
FAMILIES = (
    "astar", "online", "simulator", "engine", "ivm", "slo", "cli",
    "planner", "control",
)

#: The start of a metric name: a family and its dot.
_FAMILY_RE = re.compile(r"^(?:%s)\." % "|".join(FAMILIES))
#: A whole-string dotted metric name.
_NAME_RE = re.compile(
    r"^(?:%s)(\.[A-Za-z0-9_-]+)+$" % "|".join(FAMILIES)
)

#: A documented name: backticked first cell of a catalog table row.
_DOC_ROW_RE = re.compile(r"^\|\s*(`[^|]+?`)\s*\|")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def _display(path: Path) -> str:
    """A path relative to the repo root when possible (absolute otherwise,
    e.g. when linting a synthetic tree in tests)."""
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def _nodes(src: Path):
    """Every AST node of every module under ``src``, with its file."""
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = _display(path)
        for node in ast.walk(tree):
            yield node, rel


def emitted_names(src: Path = SRC) -> dict[str, list[str]]:
    """Metric-name-shaped strings in the source tree -> emitting files."""
    found: dict[str, list[str]] = {}
    for node, rel in _nodes(src):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _NAME_RE.match(node.value)
        ):
            found.setdefault(node.value, []).append(rel)
    return found


def runtime_names(src: Path = SRC) -> dict[str, list[str]]:
    """F-strings whose leading constant starts a metric family -> files."""
    found: dict[str, list[str]] = {}
    for node, rel in _nodes(src):
        if isinstance(node, ast.JoinedStr) and node.values:
            head = node.values[0]
            if isinstance(head, ast.Constant) and _FAMILY_RE.match(head.value):
                found.setdefault(ast.unparse(node), []).append(rel)
    return found


def documented_names(docs: Path = DOCS) -> dict[str, int]:
    """Catalog names -> line number in the docs."""
    names: dict[str, int] = {}
    for lineno, line in enumerate(docs.read_text().splitlines(), start=1):
        row = _DOC_ROW_RE.match(line.strip())
        if row is None:
            continue
        for ticked in _BACKTICK_RE.findall(row.group(1)):
            name = ticked.strip()
            if _FAMILY_RE.match(name):
                names.setdefault(name, lineno)
    return names


def check(src: Path = SRC, docs: Path = DOCS) -> list[str]:
    """All catalog violations, as printable messages (empty = clean)."""
    emitted = emitted_names(src)
    documented = documented_names(docs)
    problems = [
        f"metric name {text} built at run time (in {files[0]}); "
        f"emit a static name"
        for text, files in sorted(runtime_names(src).items())
    ]
    for name, files in sorted(emitted.items()):
        if name not in documented:
            problems.append(
                f"undocumented metric {name!r} (emitted in {files[0]}); "
                f"add it to {_display(docs)}"
            )
    for doc, lineno in sorted(documented.items()):
        if doc not in emitted:
            problems.append(
                f"stale catalog entry {doc!r} "
                f"({_display(docs)}:{lineno}): no source emits it"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(SRC))
    parser.add_argument("--docs", default=str(DOCS))
    args = parser.parse_args(argv)
    problems = check(Path(args.src), Path(args.docs))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        print(
            f"\n{len(problems)} metric-catalog problem(s); see "
            f"docs/observability.md 'Metric catalog'",
            file=sys.stderr,
        )
        return 1
    emitted = len(emitted_names(Path(args.src)))
    print(f"metric catalog OK: {emitted} emitted name(s) all documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
