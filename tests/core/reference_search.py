"""The A* search one call at a time, for tests to hold the flat kernel to.

``find_optimal_lgm_plan`` writes expansion and heuristic out inline;
:func:`reference_search` is the same closed-set search assembled from the
retained ``astar._expand`` and ``astar._heuristic``, and
:func:`linear_walk_expand` is the edge rule with the first full step found
by walking the horizon.  Shared by ``test_properties.py`` and
``test_heuristic_deviation.py``.
"""

import heapq

from repro.core import astar
from repro.core.actions import enumerate_greedy_minimal_actions
from repro.core.problem import sub_vectors, zero_vector


def reference_search(problem, use_heuristic=True, expand=None):
    """Closed-set A* over ``astar._expand`` / ``astar._heuristic``.

    The search as it read before the flat kernel: one function call per
    expansion and per heuristic evaluation, both looked up on the module at
    call time (so a monkeypatched ``astar._heuristic`` steers it).  Returns
    ``(plan, cost, expanded, generated, inconsistencies)``.
    """
    expand = expand or astar._expand

    def h(node):
        return astar._heuristic(node, problem) if use_heuristic else 0.0

    source = (-1, zero_vector(problem.n))
    destination = (problem.horizon, zero_vector(problem.n))
    g = {source: 0.0}
    parent = {}
    open_heap = [(h(source), 0, source)]
    closed = set()
    expanded, generated, inconsistencies = 0, 1, 0
    while open_heap:
        __, __, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == destination:
            plan = astar._reconstruct_plan(parent, destination, problem)
            return plan, g[node], expanded, generated, inconsistencies
        closed.add(node)
        expanded += 1
        for successor, weight in expand(node, problem):
            tentative = g[node] + weight
            if successor in closed:
                if tentative < g[successor] - 1e-12:
                    inconsistencies += 1
                continue
            if tentative < g.get(successor, float("inf")) - 1e-12:
                g[successor] = tentative
                parent[successor] = node
                heapq.heappush(
                    open_heap, (tentative + h(successor), generated, successor)
                )
                generated += 1
    raise AssertionError("reference search exhausted the graph")


def linear_walk_expand(node, problem):
    """``astar._expand`` with the first full step found by walking
    ``t1 + 1, t1 + 2, ...`` and re-summing arrivals: the definition."""
    t1, state = node
    if t1 >= problem.horizon:
        return []
    cur = state
    for t2 in range(t1 + 1, problem.horizon):
        cur = tuple(s + d for s, d in zip(cur, problem.arrivals[t2]))
        if problem.is_full(cur):
            return [
                ((t2, sub_vectors(cur, action)), problem.refresh_cost(action))
                for action in enumerate_greedy_minimal_actions(cur, problem)
            ]
    cur = tuple(s + d for s, d in zip(cur, problem.arrivals[problem.horizon]))
    return [
        ((problem.horizon, zero_vector(problem.n)), problem.refresh_cost(cur))
    ]
