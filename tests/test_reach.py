"""Every module under ``src/repro`` is reachable from something that runs.

The periphery audit's rule (ROADMAP item 6): code that only its own
tests import is not part of the product.  The walk is static -- ``ast``
over every ``import`` / ``from ... import``, function-level ones included
-- so it sees the CLI's lazy imports and needs nothing executed.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: What runs: the CLI entry point, and every benchmark, example and tool.
ROOT_MODULE = "repro.__main__"
ROOT_DIRS = ("benchmarks", "examples", "tools")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, known: set[str]) -> set[str]:
    """The ``repro`` modules the file at ``path`` imports.

    ``from pkg import name`` counts as ``pkg.name`` when that is a module
    and as ``pkg`` otherwise; importing a submodule runs its ancestor
    packages' ``__init__`` too.  ``src/repro`` imports absolutely
    (asserted here), and a relative import elsewhere names a sibling of
    the importer, never ``repro``.
    """
    in_src = SRC in path.parents
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert not in_src, f"relative import in {path}:{node.lineno}"
                continue
            base = node.module
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
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
