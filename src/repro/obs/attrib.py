"""Hierarchical attribution: who spent each simulated charge.

The cost model (:mod:`repro.engine.costmodel`) answers *how much* a query
cost; this module answers *where it went*.  A :class:`QueryProfile` is a
tree of :class:`ProfileNode` objects mirroring the physical plan --
scan / filter / project / join-build / join-probe / aggregate --
each accumulating the simulated charges, row and block counts, and wall
time attributable to that operator.  For IVM work the profile also
carries the owning view and maintenance round, so a fleet of views can
be broken down per view per round (the maintenance ledger in
:mod:`repro.ivm.ledger` builds on the same counter-delta idea).

Attribution is **observational**: a node's tally is a difference of the
shared :class:`~repro.engine.costmodel.OperationCounter`, read at the
edges of the operator's own pulls; nothing outside this module and
:class:`~repro.engine.database.Database` knows a query is profiled, and
no operator charges anything for it.  An operator's own tally is what
the counter moved while it produced its blocks minus what it moved while
its input produced theirs and, for a hash join, minus its build: the
difference around the build inside the join's first pull, which is the
join's ``join-build`` child.  The query root keeps the rest of the
query's difference (its startup, DISTINCT and ORDER BY).  So the
profile's summed tally *is* the query's counter difference, and a
profiled run's cost table is byte-identical to an unprofiled run's --
the differential test suite checks both.

Plain ``Database.explain(spec)`` renders the same nodes and labels for
the tree ``execute`` would pull, without pulling it (:func:`render_plan`).

Three switches, all off by default:

* ``Database.execute(spec, profile=True)`` / ``Database.explain(spec,
  analyze=True)`` profile one query;
* while the ``profile`` kind of the event log (:mod:`repro.obs.events`)
  is wanted, every query on every Database is profiled and its
  :class:`QueryProfile` emitted as a ``profile`` event as it finishes
  (the CLI ``--profile FILE`` flag streams them to FILE;
  :func:`set_profile_sink` hands their dicts to one callable);
* when neither is active, ``Database.execute`` builds no profile and the
  operators run unwrapped.
"""

from __future__ import annotations

import time
from operator import add, itemgetter, sub
from typing import Any, Callable

from repro.engine.costmodel import OperationCounter, float_total
from repro.obs import events

__all__ = [
    "ProfileNode",
    "QueryProfile",
    "set_profile_sink",
    "attach_to_plan",
    "render_profile",
    "render_plan",
    "aggregate_profiles",
]

#: An :class:`OperationCounter`'s tallies as one tuple in ``_FIELDS``
#: order, read off its ``__dict__``.
_read = itemgetter(*OperationCounter._FIELDS)


def _tally(counts) -> dict[str, int]:
    """The non-zero entries of a ``_FIELDS``-ordered count tuple, by field."""
    return {f: c for f, c in zip(OperationCounter._FIELDS, counts) if c}


#: Node kinds, for reference (labels are free-form; kinds are the closed
#: vocabulary that benchmark aggregation and the top-operators table key on).
KINDS = (
    "query",
    "scan",
    "filter",
    "project",
    "join-build",
    "join-probe",
    "aggregate",
)


class ProfileNode:
    """One operator's slice of a query profile.

    ``tally`` maps :class:`OperationCounter` field names to the node's
    own counts -- the same vocabulary as ``counter.snapshot()`` so profile
    totals and counter deltas are directly comparable.  ``wall_ms`` is
    inclusive: it holds the time of the node's input too.
    """

    __slots__ = (
        "kind",
        "label",
        "tally",
        "rows_out",
        "blocks",
        "wall_ms",
        "children",
    )

    def __init__(self, kind: str, label: str):
        self.kind = kind
        self.label = label
        self.tally: dict[str, int] = {}
        self.rows_out = 0
        self.blocks = 0
        self.wall_ms = 0.0
        self.children: list[ProfileNode] = []

    def child(self, kind: str, label: str) -> "ProfileNode":
        node = ProfileNode(kind, label)
        self.children.append(node)
        return node

    def sim_ms(self, model: Any) -> float:
        """Simulated cost of this node's own tally under ``model``, added
        in ``_FIELDS`` order as :meth:`OperationCounter.elapsed_ms` adds."""
        total = 0.0
        weights = OperationCounter._WEIGHT_BY_FIELD
        tally = self.tally
        for field in OperationCounter._FIELDS:
            count = tally.get(field)
            if count:
                total += count * getattr(model, weights[field])
        return total

    def total_tally(self) -> dict[str, int]:
        """Summed tally over this node and all descendants."""
        total = dict(self.tally)
        for child in self.children:
            for field, count in child.total_tally().items():
                total[field] = total.get(field, 0) + count
        return total

    def total_sim_ms(self, model: Any) -> float:
        return self.sim_ms(model) + float_total(
            c.total_sim_ms(model) for c in self.children
        )

    def to_dict(self, model: Any = None) -> dict:
        out: dict[str, Any] = {
            "op": self.kind,
            "label": self.label,
            "rows_out": self.rows_out,
            "blocks": self.blocks,
            "wall_ms": self.wall_ms,
            "tally": dict(self.tally),
        }
        if model is not None:
            out["sim_ms"] = self.sim_ms(model)
        out["children"] = [c.to_dict(model) for c in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"ProfileNode({self.kind!r}, {self.label!r}, "
            f"rows_out={self.rows_out}, tally={self.tally})"
        )


class QueryProfile:
    """The full attribution tree of one executed query."""

    def __init__(
        self,
        model: Any,
        query: str = "query",
        view: str | None = None,
        round: int | None = None,
    ):
        self.model = model
        self.query = query
        self.view = view
        self.round = round
        self.root = ProfileNode("query", query)
        #: The counter's ``__dict__`` and its tallies when :meth:`start`
        #: was called; None for a profile whose nodes are filled by hand.
        self._counter: dict | None = None
        self._start: tuple = ()
        #: Each operator's node, top down, with its inclusive counter
        #: difference -- what moved during its pulls, its input's and its
        #: build's included -- and that build's own difference (a hash
        #: join's ``join-build`` child; zeros for any other operator).
        self._ops: list[tuple[ProfileNode, list[int], list[int]]] = []

    @property
    def t(self) -> int | None:
        """The maintenance round, under the name every event kind uses."""
        return self.round

    def start(self, counter: OperationCounter) -> None:
        """Open the query's counter difference: every charge ``counter``
        takes from here to :meth:`finish` lands on some node."""
        self._counter = counter.__dict__
        self._start = _read(self._counter)

    def finish(self, rows_out: int, wall_ms: float) -> None:
        """Record the query's output and, once :meth:`start` was called,
        settle every operator node's own tally and the root's."""
        self.root.rows_out = rows_out
        self.root.wall_ms = wall_ms
        if self._counter is None:
            return
        # The root keeps what no operator pull covered; an operator, what
        # its pulls moved beyond its input's pulls and its build.
        node, built = self.root, [0] * len(OperationCounter._FIELDS)
        outer = list(map(sub, _read(self._counter), self._start))
        for child, inclusive, child_built in self._ops:
            node.tally = _tally(map(sub, map(sub, outer, inclusive), built))
            node, outer, built = child, inclusive, child_built
        node.tally = _tally(map(sub, outer, built))

    def total_tally(self) -> dict[str, int]:
        return self.root.total_tally()

    def total_sim_ms(self) -> float:
        return self.root.total_sim_ms(self.model)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "view": self.view,
            "round": self.round,
            "rows": self.root.rows_out,
            "wall_ms": self.root.wall_ms,
            "sim_ms": self.total_sim_ms(),
            "tally": self.total_tally(),
            "root": self.root.to_dict(self.model),
        }


# ----------------------------------------------------------------------
# The dict sink: one callable handed every finished profile's dict
# ----------------------------------------------------------------------


class _DictSink:
    """The ``profile`` subscriber behind :func:`set_profile_sink`."""

    def __init__(self, sink: Callable[[dict], None]):
        self.sink = sink

    def __call__(self, profile: QueryProfile) -> None:
        self.sink(profile.to_dict())


def set_profile_sink(
    sink: Callable[[dict], None] | None,
) -> Callable[[dict], None] | None:
    """Subscribe ``sink`` to the ``profile`` kind in place of the sink set
    before (``None``: in place of nothing); returns that previous sink.

    While a sink is set every ``Database.execute`` call profiles itself
    and hands ``profile.to_dict()`` to the sink.
    """
    log = events.installed()
    old = [s for s in log.wanted.get("profile", ()) if isinstance(s, _DictSink)]
    for subscriber in old:
        log.unsubscribe("profile", subscriber)
    if sink is not None:
        log.subscribe("profile", _DictSink(sink))
    return old[0].sink if old else None


# ----------------------------------------------------------------------
# Plan attachment (engine-aware; imports engine lazily, only when
# profiling is on, so this module stays import-light)
# ----------------------------------------------------------------------


def _timed_blocks(op: Any, node: ProfileNode, inclusive: list[int]):
    """An instance-level ``blocks`` override that times, counts output and
    adds the counter difference of every pull to ``inclusive``.

    Wall time and ``inclusive`` contain the input's pulls and a hash
    join's build (wall time like Postgres EXPLAIN ANALYZE actual-time);
    rows/blocks count this operator's own output.
    """
    unbound = type(op).blocks
    tallies = op.counter.__dict__

    def blocks(block_size: int):
        gen = unbound(op, block_size)
        while True:
            before = _read(tallies)
            start = time.perf_counter()
            try:
                block = next(gen)
            except StopIteration:
                block = None
            node.wall_ms += (time.perf_counter() - start) * 1e3
            inclusive[:] = map(add, inclusive, map(sub, _read(tallies), before))
            if block is None:
                return
            node.blocks += 1
            node.rows_out += len(block)
            yield block

    return blocks


def _timed_build(join: Any, node: ProfileNode, built: list[int]):
    """An instance-level ``build`` override for a hash join: its counter
    difference -- the scan and hash of the right input, the setup cost
    ``b`` -- becomes the ``join-build`` node's tally and ``built``."""
    build = join.build
    tallies = join.counter.__dict__

    def timed(block_size: int):
        before = _read(tallies)
        start = time.perf_counter()
        table = build(block_size)
        node.wall_ms += (time.perf_counter() - start) * 1e3
        built[:] = map(sub, _read(tallies), before)
        node.tally = _tally(built)
        # One hash_build is charged per row hashed.
        node.rows_out = node.tally.get("hash_builds", 0)
        return table

    return timed


def _label_for(op: Any, cols: bool = False) -> tuple[str, str]:
    """(kind, label) for one engine operator instance.

    With ``cols`` the label of a scan, filter or join also lists the
    columns its output blocks carry, which is where pruning shows.
    """
    from repro.engine import aggregate as agg_mod
    from repro.engine import join as join_mod
    from repro.engine import operators as op_mod

    emits = f" cols=[{', '.join(op.layout)}]" if cols else ""
    if isinstance(op, op_mod.SeqScan):
        return "scan", f"SeqScan({op.snapshot.name} AS {op.alias}){emits}"
    if isinstance(op, op_mod.RowSource):
        return "scan", f"RowSource({op.alias}, {len(op)} rows)"
    if isinstance(op, op_mod.Filter):
        return "filter", f"Filter({op.predicate!r}){emits}"
    if isinstance(op, op_mod.Project):
        return "project", f"Project({', '.join(op.columns)})"
    if isinstance(op, join_mod.HashJoin):
        return "join-probe", f"HashJoin(probe){emits}"
    if isinstance(op, join_mod.IndexNestedLoopJoin):
        return (
            "join-probe",
            f"IndexNestedLoopJoin({op.snapshot.name} AS {op.alias} "
            f"via {op._right_column}){emits}",
        )
    if isinstance(op, agg_mod.Aggregate):
        spec = f"{op.func.upper()}({op.value!r})"
        if op.group_by:
            spec += f" GROUP BY {', '.join(op.group_by)}"
        return "aggregate", f"Aggregate({spec})"
    return "operator", type(op).__name__


def _plan_nodes(plan: Any, parent: ProfileNode):
    """Hang one node per operator of the left-deep ``plan`` under
    ``parent``, each under the one above it (``child`` / ``left``
    references), a hash join's ``join-build`` node as the join's first
    child; yields ``(operator, node, build node or None)`` top down."""
    from repro.engine.join import HashJoin

    op = plan
    while op is not None:
        kind, label = _label_for(op, cols=True)
        node = parent.child(kind, label)
        build = None
        if isinstance(op, HashJoin):
            label = f"Build({_label_for(op.right)[1]})"
            build = node.child("join-build", label)
        yield op, node, build
        op = getattr(op, "child", None) or getattr(op, "left", None)
        parent = node


def attach_to_plan(plan: Any, profile: QueryProfile) -> None:
    """Build profile nodes for a physical plan and hook the operators.

    Creates the nodes :func:`render_plan` shows under ``profile.root`` and
    wraps each operator's ``blocks`` method, and a hash join's ``build``,
    with a timing/counting/differencing shim.
    """
    fields = len(OperationCounter._FIELDS)
    for op, node, build in _plan_nodes(plan, profile.root):
        inclusive, built = [0] * fields, [0] * fields
        op.blocks = _timed_blocks(op, node, inclusive)
        if build is not None:
            op.build = _timed_build(op, build, built)
        profile._ops.append((node, inclusive, built))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _node_line(node: ProfileNode, model: Any) -> str:
    parts = [f"{node.label}  rows={node.rows_out}"]
    if node.blocks:
        parts.append(f"blocks={node.blocks}")
    parts.append(f"wall={node.wall_ms:.2f}ms")
    parts.append(f"sim={node.sim_ms(model):.3f}ms")
    if node.tally:
        fields = " ".join(
            f"{field}={count}" for field, count in sorted(node.tally.items())
        )
        parts.append(f"[{fields}]")
    return " ".join(parts)


def _render_node(
    node: ProfileNode,
    line: Callable[[ProfileNode], str],
    prefix: str,
    lines: list[str],
) -> None:
    children = node.children
    for i, child in enumerate(children):
        last = i == len(children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(prefix + connector + line(child))
        _render_node(child, line, prefix + ("   " if last else "│  "), lines)


def render_profile(profile: QueryProfile) -> str:
    """Render a profile as an EXPLAIN ANALYZE text tree."""
    model = profile.model
    head = "EXPLAIN ANALYZE"
    if profile.view is not None:
        head += f"  view={profile.view}"
        if profile.round is not None:
            head += f" round={profile.round}"
    lines = [head, _node_line(profile.root, model)]
    _render_node(profile.root, lambda node: _node_line(node, model), "", lines)
    lines.append(
        f"total: sim={profile.total_sim_ms():.3f}ms "
        f"wall={profile.root.wall_ms:.2f}ms rows={profile.root.rows_out}"
    )
    return "\n".join(lines)


def render_plan(plan: Any, query: str, finish: str) -> str:
    """Render an unpulled operator tree as a plain EXPLAIN text tree: the
    nodes, labels and connectors of :func:`render_profile`, no actuals.
    ``query`` labels the root as a profile's root is labelled, and
    ``finish`` (what runs on the pulled rows) follows it."""
    root = ProfileNode("query", query)
    for _ in _plan_nodes(plan, root):
        pass
    lines = ["EXPLAIN", f"{query}  {finish}" if finish else query]
    _render_node(root, lambda node: node.label, "", lines)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Aggregation across many profiles (benchmark integration)
# ----------------------------------------------------------------------


def aggregate_profiles(profiles: list[dict]) -> dict:
    """Fold profile dicts into per-operator-kind totals.

    The layered harness reads its ``engine.op.<kind>.*`` per-layer
    metrics out of ``operators``::

        {"queries": N, "sim_ms": total,
         "operators": {kind: {"nodes": n, "rows_out": r,
                              "sim_ms": s, "wall_ms": w}}}
    """
    operators: dict[str, dict] = {}
    sim_total = 0.0

    def visit(node: dict) -> None:
        nonlocal sim_total
        kind = node.get("op", "operator")
        entry = operators.setdefault(
            kind, {"nodes": 0, "rows_out": 0, "sim_ms": 0.0, "wall_ms": 0.0}
        )
        entry["nodes"] += 1
        entry["rows_out"] += node.get("rows_out", 0)
        entry["sim_ms"] += node.get("sim_ms", 0.0)
        entry["wall_ms"] += node.get("wall_ms", 0.0)
        sim_total += node.get("sim_ms", 0.0)
        for child in node.get("children", ()):
            visit(child)

    for profile in profiles:
        root = profile.get("root")
        if root:
            visit(root)
    return {
        "queries": len(profiles),
        "sim_ms": sim_total,
        "operators": operators,
    }
