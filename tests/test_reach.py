"""Everything under ``src/repro`` is reachable from something that runs.

The periphery audit's rule: code that only its own tests reach is not
part of the product.  Three static walks, so nothing is executed.  The
first is per module: ``ast`` over every ``import`` / ``from ... import``,
function-level ones included, so it sees the CLI's lazy imports.  The
second is per definition: a function, class or method is reached when
reached code reads it -- a name through the reading file's own
definitions and imports, a method by attribute name.  The third is per
parameter: a default that reached code never overrides is a constant,
not an option.  The module walk also keeps the ``bench_*.py`` files
plain table generators, and a last check keeps every import read.
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
    # What gives each test its own event log.
    "repro.obs.events.install":
        "tests/conftest.py's event_log fixture installs a fresh log per test",
}

#: Defaulted parameters that only tests set and that stay, as
#: ``qualified name(parameter)`` (``fnmatch`` globs allowed), each with why.
#: Any other becomes a constant: one value in use is not an option.
ALLOWED_PARAMETERS = {
    "repro.engine.table.ModLog.__init__(chunk_size)":
        "the retained-snapshot CI gate and the oracle machine set the "
        "truncation granularity",
    "repro.ivm.governor.PolicyGovernor.__init__(escalate_after)":
        "the control-equivalence CI gate builds a governor that never "
        "escalates",
    "repro.engine.database.Database.explain(substitutions)":
        "EXPLAIN takes execute's inputs so that it shows the plan a flush "
        "runs; TestPlainExplain's substituted shapes use it",
    "repro.engine.database.Database.explain(snapshot_lsns)":
        "EXPLAIN takes execute's inputs so that it shows the plan a flush "
        "runs; TestPlainExplain's substituted shapes use it",
    "repro.experiments.*.run_*(*)":
        "tests shrink each driver; the CLI and the benches run the defaults",
    # The budgets of the reference checks ALLOWED keeps, and of the
    # search they check against a brute-force scan.
    "repro.core.astar.check_heuristic_consistency(max_nodes)":
        "a reference check's search budget, sized to each test's instance",
    "repro.core.exhaustive.find_optimal_lazy_plan_exhaustive(max_states)":
        "a reference search's budget, sized to each test's instance",
    "repro.core.costfuncs.check_cost_function(upto)":
        "a reference check's range, sized to each cost family under test",
    "repro.core.costfuncs.max_batch_under(hi)":
        "the search cap, which tests lower to match a brute-force scan "
        "up to it",
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


def _walk(nodes: Iterable[ast.AST], skip: frozenset = frozenset()
          ) -> Iterator[ast.AST]:
    """Every node under ``nodes``, subtrees in ``skip`` and the binding of
    ``__all__`` aside."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node in skip or _binds_all(node):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _bindings(tree: ast.Module, module: str | None) -> dict[str, str]:
    """What each name a file binds stands for, as a dotted name: its
    top-level definitions (``module`` is the file's, or None outside
    ``src``) and its imports at any scope.

    ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import
    b as c`` bind ``c`` to ``a.b``.  A relative import outside ``src``
    names a sibling of the importer, never ``repro``, and binds nothing.
    """
    bound: dict[str, str] = {}
    if module is not None:
        bound.update(
            (node.name, f"{module}.{node.name}") for node in tree.body
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
        )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            bound.update(
                (alias.asname or alias.name, f"{node.module}.{alias.name}")
                for alias in node.names if alias.name != "*"
            )
    return bound


class _Names:
    """Resolves a dotted name through the modules' bindings: a package
    that imports a name re-exports it, so ``repro.obs.install`` is
    ``repro.obs.recorder.install``."""

    def __init__(self, definitions: dict[str, tuple],
                 modules: dict[str, dict[str, str]]):
        self.definitions = definitions
        self.modules = modules

    def resolve(self, target: str) -> str:
        for _ in range(len(self.modules)):
            if target in self.definitions or target in self.modules:
                return target
            module, _, name = target.rpartition(".")
            forwarded = self.modules.get(module, {}).get(name)
            if forwarded is None or forwarded == target:
                return target
            target = forwarded
        return target

    def dotted(self, node: ast.AST, bindings: dict[str, str]) -> str | None:
        """The resolved dotted name of a ``Name`` or an attribute chain
        over one, if the file binds its head."""
        if isinstance(node, ast.Name):
            bound = bindings.get(node.id)
            return None if bound is None else self.resolve(bound)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value, bindings)
            if base in self.modules:
                return self.resolve(f"{base}.{node.attr}")
        return None


_NAMING_BUILTINS = ("getattr", "hasattr", "setattr")


def _reads(chunks: Iterable[tuple], names: _Names
           ) -> tuple[set[str], set[str]]:
    """The definitions the code in ``chunks`` (nodes, subtrees to skip,
    the file's bindings) reads by name, and the attributes it reads off
    anything else.

    A loaded ``Name`` reads what the file binds it to, and ``module.name``
    what that module binds ``name`` to; an unbound name (a local, a
    builtin) reads nothing.  Any other attribute, and the name constant
    of a ``getattr`` / ``hasattr`` / ``setattr``, reaches a method by
    name.  An import binds a name without reading it, and ``__all__``
    lists names without reading them.
    """
    reads: set[str] = set()
    attrs: set[str] = set()
    for nodes, skip, bindings in chunks:
        for node in _walk(nodes, skip):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = names.dotted(node, bindings)
                if read:
                    reads.add(read)
                continue
            if isinstance(node, ast.Attribute):
                owner, attr = node.value, node.attr
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in _NAMING_BUILTINS
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                owner, attr = node.args[0], node.args[1].value
            else:
                continue
            base = names.dotted(owner, bindings)
            if base in names.modules:
                reads.add(names.resolve(f"{base}.{attr}"))
            else:
                attrs.add(attr)
    return reads, attrs


def _definitions() -> tuple[dict[str, tuple], list[tuple],
                            dict[str, dict[str, str]]]:
    """Every top-level function and class of ``src/repro`` and every
    non-dunder method, as qualified name -> (name, owning class, nodes,
    subtrees that are definitions of their own, the file's bindings);
    each module's top-level statements, as (nodes, definitions to skip,
    bindings); and each module's bindings.

    A class's body, dunder methods included, is its own; its other
    methods are definitions.  A property's getter and setter are one.
    """
    found: dict[str, tuple] = {}
    top_level: list[tuple] = []
    modules: dict[str, dict[str, str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bindings = modules[module] = _bindings(tree, module)
        tops = [
            n for n in tree.body if isinstance(n, (*_FUNCTIONS, ast.ClassDef))
        ]
        top_level.append((tree.body, frozenset(tops), bindings))
        for top in tops:
            qual = f"{module}.{top.name}"
            methods = [
                n for n in top.body
                if isinstance(n, _FUNCTIONS)
                and not (n.name.startswith("__") and n.name.endswith("__"))
            ] if isinstance(top, ast.ClassDef) else []
            found[qual] = (top.name, None, [top], frozenset(methods),
                           bindings)
            for method in methods:
                found.setdefault(
                    f"{qual}.{method.name}",
                    (method.name, qual, [], frozenset(), bindings),
                )[2].append(method)
    return found, top_level, modules


def _reached(seeds: Iterable[str] = ()) -> set[str]:
    """The definitions reached code reads, to a fixed point.

    Reached code starts as the code that runs outside every definition
    and grows by the body of every definition reached: one of ``seeds``,
    or one it reads -- a top-level definition by a name that resolves to
    it, a method by an attribute of its name, whose class must be reached
    too.  An attribute name reaches every method of that name, which
    errs towards keeping code.
    """
    definitions, outside, names = _code()
    reads, attrs = _reads(outside, names)
    seeds, reached = set(seeds), set()
    grew = True
    while grew:
        grew = False
        for qual, (name, owner, nodes, own, bindings) in definitions.items():
            if qual in reached:
                continue
            read = name in attrs if owner else qual in reads
            if not (read or qual in seeds):
                continue
            if owner is None or owner in reached:
                reached.add(qual)
                more_reads, more_attrs = _reads([(nodes, own, bindings)],
                                                names)
                reads |= more_reads
                attrs |= more_attrs
                grew = True
    return reached


@lru_cache(maxsize=None)
def _code() -> tuple[dict[str, tuple], list[tuple], _Names]:
    """The definitions, the code that runs outside them, and the names
    every module binds.

    Every module is imported (the test above), so every module's
    top-level statements run; so does every file under ROOT_DIRS.
    """
    definitions, outside, modules = _definitions()
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside.append(([tree], frozenset(), _bindings(tree, None)))
    return definitions, outside, _Names(definitions, modules)


def _named(pattern: str, names: Iterable[str]) -> set[str]:
    return {name for name in names if fnmatch(name, pattern)}


def _stale(allow: dict[str, str], names: Iterable[str], kept: set[str]
           ) -> list[str]:
    """The entries of ``allow`` that give no reason, or that name nothing
    of ``names`` the walk without them leaves out of ``kept``."""
    names = list(names)
    return sorted(
        pattern for pattern, reason in allow.items()
        if not reason or _named(pattern, names) <= kept
    )


def _audit(allow: dict[str, str]) -> tuple[list[str], list[str]]:
    """The definitions nothing reaches that ``allow`` does not name, and
    the entries of ``allow`` that are stale."""
    definitions = _code()[0]
    seeds = set().union(*(_named(p, definitions) for p in allow))
    reached = _reached(seeds)
    unreached = sorted(
        f"{qual} ({definitions[qual][2][0].lineno})"
        for qual in set(definitions) - reached - seeds
    )
    return unreached, _stale(allow, definitions, _reached())


def test_every_definition_is_read_by_something():
    unreached, stale = _audit(ALLOWED)
    assert not unreached and not stale, (
        f"read by nothing under {ROOT_DIRS} or the CLI (only by tests, or "
        f"by nothing at all): {unreached}; allow-list entries that name "
        f"nothing unreached, or give no reason: {stale}"
    )


def _parameters(reached: set[str]) -> dict[str, tuple]:
    """Every defaulted parameter of a reached function, method or class
    ``__init__``, as ``qualified name(parameter)`` -> (the name a call
    uses, whether only an attribute call reaches it, the parameter's name,
    its position among the positionals a call passes or None, its line).

    ``self`` and ``cls`` are passed by the call's receiver; ``*args`` and
    ``**kwargs`` have no default.
    """
    definitions = _code()[0]
    found: dict[str, tuple] = {}
    for qual in sorted(reached):
        name, owner, nodes = definitions[qual][:3]
        if isinstance(nodes[0], ast.ClassDef):
            functions = [
                n for n in nodes[0].body
                if isinstance(n, _FUNCTIONS) and n.name == "__init__"
            ]
            prefix, receiver = f"{qual}.__init__", True
        else:
            functions, prefix, receiver = nodes, qual, owner is not None
        for function in functions:
            args = function.args
            positional = args.posonlyargs + args.args
            bound = receiver and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in function.decorator_list
            )
            first_default = len(positional) - len(args.defaults)
            defaulted = [
                (arg, index - bound) for index, arg in enumerate(positional)
                if index >= first_default
            ] + [
                (arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, index in defaulted:
                found[f"{prefix}({arg.arg})"] = (
                    name, owner is not None, arg.arg, index, function.lineno
                )
    return found


def _set_parameters(reached: set[str], parameters: dict[str, tuple]
                    ) -> set[str]:
    """The parameters that reached code sets.

    A call sets a parameter when it names the definition (bare or as an
    attribute; a method only as an attribute; a class for its
    ``__init__``, and ``cls`` in its methods) and passes it by keyword,
    passes enough positionals to reach it, or splats ``*`` / ``**`` into
    the call.  A key of a dict
    literal sets every parameter of that name, since ``runner(**kwargs)``
    is a call no name matches.  Name collisions keep a parameter set.
    """
    definitions, outside, _ = _code()
    chunks = [(nodes, skip, None) for nodes, skip, _ in outside] + [
        (nodes, own, owner and definitions[owner][0])
        for _, owner, nodes, own, _ in map(definitions.get, reached)
    ]
    calls: dict[tuple[str, bool], list[tuple]] = {}
    keys: set[str] = set()
    for nodes, skip, cls in chunks:
        for node in _walk(nodes, skip):
            if isinstance(node, ast.Dict):
                keys |= {
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
                callee = (cls if name == "cls" and cls else name, False)
            elif isinstance(node.func, ast.Attribute):
                callee = (node.func.attr, True)
            else:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            calls.setdefault(callee, []).append(
                (len(node.args), {k.arg for k in node.keywords}, splat)
            )

    def passed(name: str, index: int | None, call: tuple) -> bool:
        count, keywords, splat = call
        return splat or name in keywords or (
            index is not None and count > index
        )

    return {
        qual for qual, (callee, method, name, index, _) in parameters.items()
        if name in keys or any(
            passed(name, index, call)
            for attr in ((True,) if method else (False, True))
            for call in calls.get((callee, attr), ())
        )
    }


def _audit_parameters(allow: dict[str, str]
                      ) -> tuple[list[str], list[str]]:
    """The parameters nothing sets that ``allow`` does not name, and the
    entries of ``allow`` that are stale."""
    definitions = _code()[0]
    reached = _reached(
        set().union(*(_named(p, definitions) for p in ALLOWED))
    )
    parameters = _parameters(reached)
    kept = _set_parameters(reached, parameters)
    allowed = set().union(*(_named(p, parameters) for p in allow))
    unset = sorted(
        f"{qual} ({parameters[qual][-1]})"
        for qual in set(parameters) - kept - allowed
    )
    return unset, _stale(allow, parameters, kept)


def test_every_parameter_is_set_by_something():
    unset, stale = _audit_parameters(ALLOWED_PARAMETERS)
    assert not unset and not stale, (
        f"defaulted parameters nothing under {ROOT_DIRS} or the CLI sets "
        f"(only tests, or nothing at all): make each a constant, or name "
        f"it with a reason: {unset}; allow-list entries that name nothing "
        f"unset, or give no reason: {stale}"
    )


def test_a_stale_allow_list_entry_fails():
    gone = "repro.engine.table.Table.no_such_method"
    reached = "repro.ivm.view.MaterializedView.pending_sizes"
    unreached, stale = _audit({**ALLOWED, gone: "gone", reached: "read"})
    assert (unreached, stale) == ([], sorted([gone, reached]))

    gone = "repro.engine.table.ModLog.truncate(upto_lsn)"
    passed = "repro.engine.database.Database.__init__(block_size)"
    reasonless = "repro.engine.table.ModLog.__init__(chunk_size)"
    unset, stale = _audit_parameters({
        **ALLOWED_PARAMETERS, gone: "gone", passed: "set", reasonless: "",
    })
    assert (unset, stale) == ([], sorted([gone, passed, reasonless]))


#: Where every import is read.  ``benchmarks/layered/`` is the wall-clock
#: harness, checked by its own suite.
IMPORT_DIRS = ("src", "tests", "tools", "examples", "benchmarks")
IMPORT_EXEMPT = ("benchmarks/layered",)


def _unused_imports(path: Path) -> list[str]:
    """The names the file at ``path`` imports and never reads.

    A read is a loaded ``Name``, a string constant that is the name (a
    forward reference such as ``Callable[["RowBlock"], list]``), a name in
    a string annotation (an entry of ``__all__`` is a string constant), or,
    under ``tests/`` and
    ``benchmarks/``, a parameter of that name (a pytest fixture).
    ``__future__`` imports bind nothing.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fixtures = path.relative_to(REPO).parts[0] in ("tests", "benchmarks")
    bound: dict[str, int] = {}
    read: set[str] = set()
    annotations: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound.update(
                    (alias.asname or alias.name, node.lineno)
                    for alias in node.names
                )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
            if fixtures:
                read.add(node.arg)
        elif isinstance(node, _FUNCTIONS):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= {
                    n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)
                }
    return sorted(
        f"{path.relative_to(REPO)}:{line} {name}"
        for name, line in bound.items() if name not in read and name != "*"
    )


def test_every_import_is_used():
    """A package's ``__init__`` imports to re-export, so it is skipped."""
    unused = [
        found
        for directory in IMPORT_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
        if path.name != "__init__.py"
        and not str(path.relative_to(REPO)).startswith(IMPORT_EXEMPT)
        for found in _unused_imports(path)
    ]
    assert not unused, f"imported and never read: {unused}"
