"""Everything under ``src/repro`` is reachable from something that runs.

The periphery audit's rule: code that only its own tests reach is not
part of the product.  Two static walks, so nothing is executed.  The
first is per module: ``ast`` over every ``import`` / ``from ... import``,
function-level ones included, so it sees the CLI's lazy imports.  The
second is per definition: a function, class or method is reached when
reached code reads its name.  The module walk also keeps the
``bench_*.py`` files plain table generators.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: What runs: the CLI entry point, and every benchmark, example and tool.
ROOT_MODULE = "repro.__main__"
ROOT_DIRS = ("benchmarks", "examples", "tools")

#: What a paper-table generator may not import: a clock, the timing
#: fixture, or the telemetry stack.  Wall-clock is measured in one place,
#: ``benchmarks/layered/``.
BENCH_FORBIDDEN = ("time", "pytest_benchmark", "repro.obs")

#: Definitions that only tests reach and that stay, by qualified name
#: (``fnmatch`` globs allowed), each with why.  An entry counts as
#: reached, and so does what it reads.
ALLOWED = {
    # Reference implementations the tests hold the planners to.
    "repro.core.astar.check_heuristic_consistency":
        "A*'s optimality condition, over the one-node _heuristic and _expand",
    "repro.core.exhaustive.find_optimal_lazy_plan_exhaustive":
        "brute force over lazy plans, the optimum A* must match",
    # The paper's constructions and predicates, as the theorem tests
    # state them.
    "repro.core.transforms.make_lazy_plan": "MakeLazyPlan (Lemma 1)",
    "repro.core.transforms.make_lgm_plan": "MakeLGMPlan (Theorems 1, 2)",
    "repro.core.plan.Plan.is_lgm":
        "lazy, greedy and minimal (Definitions 2 and 3)",
    "repro.core.costfuncs.check_cost_function":
        "Lemma 1's precondition (monotone, subadditive), checked per family",
    # Reached in ways a name read does not show.
    "repro.tpcr.gen.TpcrGenerator._gen_*":
        'dispatched by getattr(self, f"_gen_{table}") from '
        "`repro generate --tables`",
    "repro.core.online.OnlinePolicy.spent":
        "ONLINE's F_t, which the oracle machine holds bit-equal",
    "repro.engine.table.Table.delete_rids":
        "the DELETE event kind the oracle machine drives",
    # Pending deletion: only tests reach these, and they go with their
    # tests in a later change.
    "repro.ivm.ledger.ledger_summary":
        "pending deletion: a table no command prints",
    "repro.ivm.multiview.MaintenanceCoordinator.ledger_summary":
        "pending deletion: a table no command prints",
    "repro.pubsub.conditions.OnEveryChange":
        "pending deletion: a condition no subscription uses",
    "repro.pubsub.conditions.AllOf":
        "pending deletion: a condition no subscription uses",
    "repro.pubsub.conditions.AnyOf":
        "pending deletion: a condition no subscription uses",
    "repro.core.costfuncs.PiecewiseLinearCost":
        "pending deletion: a cost family nothing builds",
    "repro.workloads.arrivals.poisson_arrivals":
        "pending deletion: an arrival model nothing draws",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _binds_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _reads(nodes: Iterable[ast.AST], skip: frozenset = frozenset()
           ) -> set[str]:
    """Every name the code under ``nodes`` reads, subtrees in ``skip`` aside.

    A read is a loaded ``Name``, an ``Attribute`` or a string constant that
    is an identifier (a ``getattr`` or a dispatch table).  An import binds
    a name without reading it, and ``__all__`` lists names without
    reading them.
    """
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node in skip or _binds_all(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definitions() -> tuple[dict[str, tuple], set[str]]:
    """Every top-level function and class of ``src/repro`` and every
    non-dunder method, as qualified name -> (name, owning class, nodes,
    subtrees that are definitions of their own); and what the modules'
    top-level statements read.

    A class's body, dunder methods included, is its own; its other
    methods are definitions.  A property's getter and setter are one.
    """
    found: dict[str, tuple] = {}
    top_level: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tops = [
            n for n in tree.body if isinstance(n, (*_FUNCTIONS, ast.ClassDef))
        ]
        top_level |= _reads(tree.body, frozenset(tops))
        for top in tops:
            qual = f"{module}.{top.name}"
            methods = [
                n for n in top.body
                if isinstance(n, _FUNCTIONS)
                and not (n.name.startswith("__") and n.name.endswith("__"))
            ] if isinstance(top, ast.ClassDef) else []
            found[qual] = (top.name, None, [top], frozenset(methods))
            for method in methods:
                found.setdefault(
                    f"{qual}.{method.name}",
                    (method.name, qual, [], frozenset()),
                )[2].append(method)
    return found, top_level


def _reached(definitions: dict[str, tuple], reads: set[str],
             seeds: Iterable[str] = ()) -> set[str]:
    """The definitions reached code reads, to a fixed point.

    Reached code starts as ``reads`` and grows by the body of every
    definition reached: one whose name it reads, or one of ``seeds``,
    and whose class, if it is a method, is reached.  A name read reaches
    every definition of that name, which errs towards keeping code.
    """
    reads, seeds, reached = set(reads), set(seeds), set()
    grew = True
    while grew:
        grew = False
        for qual, (name, owner, nodes, own) in definitions.items():
            if qual in reached or not (name in reads or qual in seeds):
                continue
            if owner is None or owner in reached:
                reached.add(qual)
                reads |= _reads(nodes, own)
                grew = True
    return reached


@lru_cache(maxsize=None)
def _code() -> tuple[dict[str, tuple], frozenset[str]]:
    """The definitions, and what the code that runs reads outside them.

    Every module is imported (the test above), so every module's
    top-level statements run; so does every file under ROOT_DIRS.
    """
    definitions, reads = _definitions()
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            reads |= _reads([ast.parse(path.read_text(encoding="utf-8"))])
    return definitions, frozenset(reads)


def _audit(allow: dict[str, str]) -> tuple[list[str], list[str]]:
    """The definitions nothing reaches that ``allow`` does not name, and
    the entries of ``allow`` that are stale: they give no reason, or
    name nothing the walk without them leaves unreached."""
    definitions, reads = _code()

    def named(pattern: str) -> list[str]:
        return [qual for qual in definitions if fnmatch(qual, pattern)]

    seeds = [qual for pattern in allow for qual in named(pattern)]
    reached = _reached(definitions, reads, seeds)
    unreached = sorted(
        f"{qual} ({definitions[qual][2][0].lineno})"
        for qual in set(definitions) - reached - set(seeds)
    )
    bare = _reached(definitions, reads)
    stale = sorted(
        pattern for pattern, reason in allow.items()
        if not reason or set(named(pattern)) <= bare
    )
    return unreached, stale


def test_every_definition_is_read_by_something():
    unreached, stale = _audit(ALLOWED)
    assert not unreached and not stale, (
        f"read by nothing under {ROOT_DIRS} or the CLI (only by tests, or "
        f"by nothing at all): {unreached}; allow-list entries that name "
        f"nothing unreached, or give no reason: {stale}"
    )


def test_a_stale_allow_list_entry_fails():
    gone = "repro.engine.table.Table.no_such_method"
    reached = "repro.ivm.view.MaterializedView.pending_sizes"
    unreached, stale = _audit({**ALLOWED, gone: "gone", reached: "read"})
    assert (unreached, stale) == ([], sorted([gone, reached]))
