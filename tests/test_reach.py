"""Every module under ``src/repro`` is reachable from something that runs.

The periphery audit's rule (ROADMAP item 6): code that only its own
tests import is not part of the product.  The walk is static -- ``ast``
over every ``import`` / ``from ... import``, function-level ones included
-- so it sees the CLI's lazy imports and needs nothing executed.  The
same walk keeps the ``bench_*.py`` files plain table generators.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: What runs: the CLI entry point, and every benchmark, example and tool.
ROOT_MODULE = "repro.__main__"
ROOT_DIRS = ("benchmarks", "examples", "tools")

#: What a paper-table generator may not import: a clock, the timing
#: fixture, or the telemetry stack.  Wall-clock is measured in one place,
#: ``benchmarks/layered/``.
BENCH_FORBIDDEN = ("time", "pytest_benchmark", "repro.obs")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _targets(path: Path) -> Iterator[str]:
    """Every dotted name the file at ``path`` imports.

    ``from pkg import name`` yields ``pkg`` and ``pkg.name``.
    ``src/repro`` imports absolutely (asserted here), and a relative
    import elsewhere names a sibling of the importer, never ``repro``.
    """
    in_src = SRC in path.parents
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert not in_src, f"relative import in {path}:{node.lineno}"
                continue
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _imports(path: Path, known: set[str]) -> set[str]:
    """The ``repro`` modules the file at ``path`` imports.

    ``from pkg import name`` counts as ``pkg.name`` when that is a module
    and as ``pkg`` otherwise; importing a submodule runs its ancestor
    packages' ``__init__`` too.
    """
    found: set[str] = set()
    for target in _targets(path):
        while target:
            if target in known:
                found.add(target)
            target = target.rpartition(".")[0]
    return found


def test_every_module_is_imported_by_something():
    files = {_module_name(p): p for p in SRC.rglob("*.py")}
    known = set(files)
    assert ROOT_MODULE in known

    frontier = {ROOT_MODULE}
    for directory in ROOT_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            frontier |= _imports(path, known)
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        reached.add(module)
        frontier |= _imports(files[module], known) - reached

    unreached = sorted(known - reached)
    assert not unreached, (
        f"imported by nothing under {ROOT_DIRS} or the CLI "
        f"(only by tests, or by nothing at all): {unreached}"
    )


def test_bench_files_only_generate_tables():
    offenders = sorted(
        (str(path.relative_to(REPO)), target)
        for path in (REPO / "benchmarks").rglob("*.py")
        if "layered" not in path.relative_to(REPO).parts
        for target in _targets(path)
        if any(
            target == banned or target.startswith(banned + ".")
            for banned in BENCH_FORBIDDEN
        )
    )
    assert not offenders, (
        f"a file under benchmarks/ outside layered/ imports one of "
        f"{BENCH_FORBIDDEN}: {offenders}"
    )
