"""A* search for the optimal LGM plan (Section 4.1 of the paper).

The space of LGM plans is modeled as a weighted DAG:

* a node is a ``(timestamp, post-action state)`` pair reachable by some
  valid LGM plan; the *source* is ``(-1, 0)`` and the *destination* is
  ``(T, 0)``;
* from a node at time ``t1`` with state ``s``, arrivals accumulate until
  the first time ``t2`` the pre-action state becomes full; each greedy
  minimal valid action ``q`` at ``t2`` is an edge of weight ``f(q)``; if
  the state never becomes full before ``T`` (or becomes full exactly at
  ``T``), the single edge goes to the destination with the cost of the
  final full refresh.

Shortest source-to-destination paths correspond exactly to minimum-cost
LGM plans (Theorem 3).

**Heuristic (deviation from the paper, documented in DESIGN.md).**  The
paper proposes ``h(x) = sum_i floor((s[i] + K_i) / b_i) * f_i(b_i)`` where
``K_i`` counts future arrivals and ``b_i = m_i + max{b : f_i(b) <= C}``
bounds any single action's batch, and claims it is consistent (Lemma 7).
It is not: across an action that moves the remaining total ``M_i = s[i] +
K_i`` over a multiple of ``b_i``, the floor term drops by a full
``f_i(b_i)`` while the action itself may cost far less, violating
``h(x) <= f(q) + h(x')`` (we hit such violations with calibrated TPC-R
cost curves, producing 0.01%-suboptimal answers).  We therefore use the
tightened-but-consistent per-modification-rate bound

    h(x) = sum_i (s[i] + K_i) * r_i,     r_i = min_{1<=k<=b_i} f_i(k) / k

which is admissible (every modification must be processed in some batch of
size at most ``b_i``, paying at least rate ``r_i``) and consistent
(``h(x) - h(x') = sum_i q_i * r_i <= f(q)``).  Consistency makes the first
expansion of every node optimal, so each node is expanded at most once.

**The kernel.**  :func:`find_optimal_lgm_plan` runs the search over
interned states: each distinct post-action state gets a small int id on
first sight (the zero state is 0), and a node is the int ``sid * (T + 2)
+ t + 1``, so the source is 0 and the destination ``T + 1``.  The closed
set, ``g`` and the parent map hash plain ints, and a successor's key is
one multiply-add.  Each state remembers the last gap to its first full
step, which seeds the next boundary search from that state; only the
nodes on the optimal path are decoded back into ``(t, state)`` pairs.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from repro import obs
from repro.obs import decisions
from repro.core.actions import enumerate_greedy_minimal_actions
from repro.core.plan import Plan
from repro.core.problem import (
    ProblemInstance,
    Vector,
    add_vectors,
    sub_vectors,
    zero_vector,
)

Node = tuple[int, Vector]  # (timestamp, post-action state)


@dataclass
class AStarResult:
    """Outcome of :func:`find_optimal_lgm_plan`.

    ``expanded`` and ``generated`` node counts feed the heuristic-quality
    ablation (A* vs Dijkstra) in ``repro.experiments.ablations``; they are
    also registered as ``astar.expanded`` / ``astar.generated`` counters in
    the :mod:`repro.obs` metrics registry (via :meth:`register_metrics`),
    so any observed run reports search effort uniformly alongside the
    engine and simulator metrics.
    """

    plan: Plan
    cost: float
    expanded: int
    generated: int
    #: Fullness probes spent locating first full steps, over the search.
    probes: int

    def register_metrics(self) -> None:
        """Fold the search statistics into the active metrics registry."""
        obs.counter("astar.searches")
        obs.counter("astar.expanded", self.expanded)
        obs.counter("astar.generated", self.generated)
        obs.counter("astar.probes", self.probes)
        obs.observe("astar.plan_cost", self.cost)


def _heuristic(node: Node, problem: ProblemInstance) -> float:
    """Consistent lower bound on remaining maintenance cost.

    ``sum_i (remaining_i) * min-rate_i`` -- see the module docstring for
    why this replaces the paper's floor-based estimate.
    """
    t, state = node
    future = problem.future_arrivals(t)
    rates = problem.min_batch_rates()
    total = 0  # left to right, never sum(): see CostModel.refresh_cost
    for s, k, r in zip(state, future, rates):
        total = total + (s + k) * r
    return total


def _expand(node: Node, problem: ProblemInstance) -> list[tuple[Node, float]]:
    """Successors of ``node``: ``(successor, edge_weight)`` pairs.

    Implements the edge rule of Section 4.1, including the destination
    special case (the final refresh is exempt from laziness and must
    process everything).

    The first full time step is located by binary search rather than a
    linear walk: the pre-action state grows componentwise with ``t2``
    (arrivals are non-negative) and the cost functions are monotone, so
    fullness is monotone in ``t2`` and the same ``is_full`` predicate that
    the walk would evaluate step by step identifies the boundary.  States
    come from exact integer prefix sums, so every probed state -- and hence
    every edge -- is identical to the linear walk's.
    """
    t1, state = node
    horizon = problem.horizon
    if t1 >= horizon:
        # t1 == horizon with a non-zero state cannot happen: destination
        # nodes are terminal and all other nodes at T are never created.
        return []
    prefix = problem.prefix_totals()
    # base + prefix[t2 + 1] == state + arrivals in (t1, t2]: exact ints.
    base = tuple(s - b for s, b in zip(state, prefix[t1 + 1]))
    refresh_cost = problem.refresh_cost
    full_above = problem.full_above
    # Smallest t2 in (t1, horizon) whose pre-action state is full, if any.
    first_full = None
    lo, hi = t1 + 1, horizon - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if refresh_cost(tuple(map(sum, zip(base, prefix[mid + 1])))) > full_above:
            first_full = mid
            hi = mid - 1
        else:
            lo = mid + 1
    if first_full is None:
        # Never full before the refresh time: one edge, flush everything.
        cur = tuple(map(sum, zip(base, prefix[horizon + 1])))
        return [((horizon, zero_vector(problem.n)), problem.refresh_cost(cur))]
    cur = tuple(map(sum, zip(base, prefix[first_full + 1])))
    return [
        ((first_full, sub_vectors(cur, action)), problem.refresh_cost(action))
        for action in enumerate_greedy_minimal_actions(cur, problem)
    ]


def find_optimal_lgm_plan(problem: ProblemInstance, use_heuristic: bool = True) -> AStarResult:
    """Find a minimum-cost LGM plan via A* (Section 4.1).

    Parameters
    ----------
    problem:
        The instance, with full advance knowledge of arrivals and ``T``.
    use_heuristic:
        When false, run with ``h = 0`` (Dijkstra).  Same optimal answer,
        more node expansions; exposed for the heuristic ablation.

    Returns
    -------
    AStarResult
        The optimal plan, its cost ``OPT_LGM``, and search statistics.

    Raises
    ------
    ValueError
        If no valid LGM plan exists -- i.e. some single time step's
        arrivals already exceed what any greedy minimal action can clear.
        (With subadditive costs this happens only when even emptying every
        delta table leaves a full state, which is impossible since the
        empty state costs 0; so in practice search always succeeds.)

    Notes
    -----
    The loop is flat: expansion and heuristic are written out over hoisted
    locals and probe ``problem.cost_tables`` directly.  :func:`_expand`
    and :func:`_heuristic` state the same edge rule and bound one node at
    a time; they are the reference the tests hold this loop to (same plan,
    same cost bits, same ``expanded`` / ``generated``), not its callees.
    Every float is built by the same left-to-right additions as theirs,
    because heap order -- hence both counts -- hangs on the last bit.

    Nodes are interned ints (module docstring).  Heap entries tie-break
    on the push number, never on the node, so the ids' assignment order
    cannot reorder the heap.  The first full step after ``t1`` is found by
    galloping from a first probe at ``t1`` plus the state's remembered
    gap (``t1 + 1`` for a new state) and then bisecting.  Fullness is
    monotone in the step, so every probe order brackets the same boundary
    a linear walk finds: the memo changes how many probes a search spends
    (``AStarResult.probes``), never an edge.  The parent chain is walked
    from the destination, and only its nodes are decoded for
    :func:`_reconstruct_plan`.
    """
    n = problem.n
    horizon = problem.horizon
    zero = zero_vector(n)
    prefix = problem.prefix_totals()
    suffix = problem.suffix_totals()
    tables = problem.cost_tables
    refresh_cost = problem.refresh_cost
    full_above = problem.full_above
    rates = problem.min_batch_rates() if use_heuristic else None
    heappush, heappop = heapq.heappush, heapq.heappop
    infinity = float("inf")

    # Interned states: node (t, states[sid]) is the int
    # sid * per_state + t + 1, so the source (-1, 0) is 0 and the
    # destination (T, 0) is T + 1.
    per_state = horizon + 2
    states: list[Vector] = [zero]
    sid_of: dict[Vector, int] = {zero: 0}
    # gaps[sid]: the last ``lo - t1`` found from that state; 1 (gallop from
    # t1 + 1) until it has been expanded once.
    gaps: list[int] = [1]
    destination = horizon + 1

    h_source = 0.0
    if rates is not None:
        h_source = 0
        for k, r in zip(suffix[0], rates):
            h_source = h_source + k * r
    g: dict[int, float] = {0: 0.0}
    parent: dict[int, int] = {}
    # Heap entries are (g + h, push number, node): the push number is the
    # stable tie-breaker, and equals ``generated`` at the time of the push.
    open_heap: list[tuple[float, int, int]] = [(h_source, 0, 0)]
    closed: set[int] = set()
    # full pre-action state -> ((post sid, post-action state, edge weight),
    # ...) for each greedy minimal action, in enumeration order.  Distinct
    # timestamps share states, so most expansions hit.
    edges_of: dict[Vector, tuple[tuple[int, Vector, float], ...]] = {}
    expanded = 0
    generated = 1
    probes = 0
    heap_peak = 1
    inconsistencies = 0
    started = time.perf_counter()

    with obs.trace(
        "astar.search", horizon=horizon, n=n, heuristic=use_heuristic,
    ) as span:
        while open_heap:
            __, __, node = heappop(open_heap)
            if node in closed:
                continue  # stale heap entry
            if node == destination:
                break
            closed.add(node)
            expanded += 1
            # Nodes at T other than the destination are never created, so
            # t1 < T here.
            sid, t1 = divmod(node, per_state)
            t1 -= 1
            base = [s - a for s, a in zip(states[sid], prefix[t1 + 1])]
            # First full step in (t1, T), or T (the forced refresh) if
            # none.  base + prefix[t2 + 1] is the pre-action state at t2 in
            # exact ints, and fullness is monotone in t2 (arrivals are
            # non-negative, costs monotone), so any probe order finds the
            # boundary a linear walk would.  The first probe is this
            # state's remembered gap past t1; from there gallop outward,
            # doubling the stride until the boundary is bracketed, and
            # then the midpoint is the nearer probe and the loop is a
            # plain bisection.
            lo, hi, step = t1 + 1, horizon, 1
            mid = min(t1 + gaps[sid], horizon - 1)
            while lo < hi:
                total = 0
                for b, a, table in zip(base, prefix[mid + 1], tables):
                    total = total + table[b + a]
                if total > full_above:
                    hi = mid
                    mid = max((lo + hi) >> 1, hi - step)
                else:
                    lo = mid + 1
                    mid = min((lo + hi) >> 1, lo + step - 1)
                step += step
            probes += step.bit_length() - 1  # step == 2 ** probes made
            gaps[sid] = lo - t1
            cur = tuple([b + a for b, a in zip(base, prefix[lo + 1])])
            if lo == horizon:
                # Never full before the refresh time: flush everything.
                edges = ((0, zero, refresh_cost(cur)),)
            else:
                edges = edges_of.get(cur)
                if edges is None:
                    built = []
                    for action in enumerate_greedy_minimal_actions(
                        cur, problem
                    ):
                        post = sub_vectors(cur, action)
                        post_sid = sid_of.get(post)
                        if post_sid is None:
                            post_sid = sid_of[post] = len(states)
                            states.append(post)
                            gaps.append(1)
                        built.append((post_sid, post, refresh_cost(action)))
                    edges = edges_of[cur] = tuple(built)
            future = suffix[lo + 1]
            offset = lo + 1
            g_node = g[node]
            for post_sid, post, weight in edges:
                successor = post_sid * per_state + offset
                tentative = g_node + weight
                if successor in closed:
                    # A consistent heuristic guarantees closed nodes hold
                    # their optimal g; a strictly better path arriving now
                    # is exactly where the paper's floor-based Lemma-7
                    # heuristic misfires (see module docstring).  Counted,
                    # never repaired: the rate heuristic keeps this at 0.
                    if tentative < g[successor] - 1e-12:
                        inconsistencies += 1
                    continue
                if tentative < g.get(successor, infinity) - 1e-12:
                    g[successor] = tentative
                    parent[successor] = node
                    priority = tentative
                    if rates is not None:
                        h = 0
                        for s, k, r in zip(post, future, rates):
                            h = h + (s + k) * r
                        priority = tentative + h
                    heappush(open_heap, (priority, generated, successor))
                    generated += 1
                    if len(open_heap) > heap_peak:
                        heap_peak = len(open_heap)
        else:
            raise ValueError("no valid LGM plan exists for this instance")

        # Decode only the nodes on the optimal path, child -> parent.
        path_parent: dict[Node, Node] = {}
        node = destination
        while node in parent:
            above = parent[node]
            sid, t = divmod(node, per_state)
            up_sid, up_t = divmod(above, per_state)
            path_parent[(t - 1, states[sid])] = (up_t - 1, states[up_sid])
            node = above
        plan = _reconstruct_plan(path_parent, (horizon, zero), problem)
        plan.check_valid(problem)
        result = AStarResult(
            plan=plan, cost=g[destination], expanded=expanded,
            generated=generated, probes=probes,
        )
        span.set(cost=result.cost, expanded=expanded, generated=generated)
        result.register_metrics()
        if decisions.active():
            first = next((a for a in plan.actions if any(a)), zero)
            flushes = sum(1 for a in plan.actions if any(a))
            decisions.emit_policy_decision(
                "OPT_LGM",
                -1,  # plans the whole horizon before time starts
                zero,
                problem.cost_functions,
                problem.limit,
                chosen=first,
                rationale=(
                    f"optimal LGM plan: cost={result.cost:.3f} over "
                    f"{flushes} flush(es), expanded={expanded}, "
                    f"generated={generated}"
                ),
            )
        # One heuristic evaluation per generated node, the source included.
        obs.counter("astar.heuristic_evals", generated if use_heuristic else 0)
        obs.counter("astar.heuristic.inconsistency_detected", inconsistencies)
        obs.gauge_max("astar.heap_peak", heap_peak)
        obs.observe(
            "astar.time_to_solution_ms", (time.perf_counter() - started) * 1e3
        )
    return result


def check_heuristic_consistency(
    problem: ProblemInstance, max_nodes: int = 2000
) -> list[tuple[Node, Node, float, float]]:
    """Search for consistency violations ``h(x) > f(q) + h(x')``.

    Explores the LGM plan graph breadth-first (up to ``max_nodes`` nodes)
    and returns every violating edge as ``(node, successor, h(node),
    edge_cost + h(successor))``.  An empty list certifies consistency over
    the explored region.  This is the tool that exposed the paper's
    Lemma 7 heuristic as inconsistent; for the rate-based heuristic used
    by :func:`find_optimal_lgm_plan` it provably returns no violations,
    and a property test re-checks that on randomized instances.
    """
    source: Node = (-1, zero_vector(problem.n))
    violations: list[tuple[Node, Node, float, float]] = []
    seen = {source}
    frontier = [source]
    while frontier and len(seen) < max_nodes:
        next_frontier: list[Node] = []
        for node in frontier:
            h_node = _heuristic(node, problem)
            for successor, weight in _expand(node, problem):
                bound = weight + _heuristic(successor, problem)
                if h_node > bound + 1e-9:
                    violations.append((node, successor, h_node, bound))
                    obs.counter("astar.heuristic.inconsistency_detected")
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return violations


def _reconstruct_plan(
    parent: dict[Node, Node], destination: Node, problem: ProblemInstance
) -> Plan:
    """Turn the A* parent chain into a concrete :class:`Plan` (Theorem 3)."""
    path: list[Node] = [destination]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()  # source .. destination
    actions = [zero_vector(problem.n)] * (problem.horizon + 1)
    for (t_prev, s_prev), (t_cur, s_cur) in zip(path, path[1:]):
        pre = s_prev
        for t in range(t_prev + 1, t_cur + 1):
            pre = add_vectors(pre, problem.arrivals[t])
        actions[t_cur] = sub_vectors(pre, s_cur)
    return Plan(actions)
