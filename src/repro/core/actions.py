"""Greedy/minimal action machinery shared by all planners (Section 3.2).

A *greedy* action empties a subset of the delta tables and leaves the rest
untouched.  A greedy action taken on a full pre-action state is *minimal*
when no emptied table could be dropped from it while keeping the post-action
state within the response-time constraint.  LGM planners (the A* search,
the ADAPT fallback, and the ONLINE heuristic) all enumerate exactly this set
of candidate actions, so the enumeration lives here in one place.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.problem import CostModel, Vector, sub_vectors

# Enumerating greedy actions is exponential in the number of *non-empty*
# delta tables.  The paper notes n <= 5 for its TPC-R views; we allow a
# comfortable margin but refuse clearly pathological widths.
_MAX_ENUMERABLE_TABLES = 20


def enumerate_greedy_minimal_actions(
    state: Vector, problem: CostModel
) -> Iterator[Vector]:
    """Yield every greedy, minimal, valid action for pre-action ``state``.

    Each yielded action empties a subset ``S`` of the non-empty delta tables
    such that (a) the post-action state satisfies the constraint and (b) no
    proper subset of ``S`` does.  If ``state`` itself satisfies the
    constraint, the unique minimal action is to do nothing and nothing is
    yielded -- callers decide whether a zero action is acceptable (lazy
    plans) or not (the final flush at ``T``).

    Yields actions in deterministic order (subsets in increasing bitmask
    order over non-empty tables) so planner results are reproducible.
    """
    limit = problem.full_above
    costs = [table[k] for table, k in zip(problem.cost_tables, state, strict=True)]
    # Float sums are explicit left-to-right additions: ``sum()`` compensates
    # on CPython >= 3.12 and would move the last bit (see CostModel).
    total = 0
    for c in costs:
        total = total + c
    if total <= limit:
        return  # state is not full; the minimal action is no action
    nonzero = [i for i in range(problem.n) if state[i] > 0]
    if len(nonzero) > _MAX_ENUMERABLE_TABLES:
        raise ValueError(
            f"{len(nonzero)} non-empty delta tables exceeds the subset "
            f"enumeration limit of {_MAX_ENUMERABLE_TABLES}"
        )
    m = len(nonzero)
    for mask in range(1, 1 << m):
        emptied = [nonzero[j] for j in range(m) if mask >> j & 1]
        flushed = 0
        for i in emptied:
            flushed = flushed + costs[i]
        remaining = total - flushed
        if remaining > limit:
            continue  # not valid: leftover backlog still violates C
        # Minimality: restoring any emptied table must overflow the limit.
        if any(remaining + costs[i] <= limit for i in emptied):
            continue
        action = [0] * problem.n
        for i in emptied:
            action[i] = state[i]
        yield tuple(action)


def minimize_action(action: Vector, state: Vector, problem: CostModel) -> Vector:
    """``MinimizeAction(q, s)`` from Section 3.2 of the paper.

    Given a greedy action ``action`` whose post-action state satisfies the
    constraint, return a minimal greedy action that empties a subset of the
    same tables and still satisfies the constraint.  Components are dropped
    in decreasing order of their processing cost, so the minimization sheds
    the most expensive batches first (those benefit most from further
    batching); any drop order yields *a* minimal action, this order is our
    deterministic choice.
    """
    post = sub_vectors(state, action)
    for i in range(problem.n):
        if action[i] not in (0, state[i]):
            raise ValueError(
                f"action {action} is not greedy for state {state} "
                f"(component {i})"
            )
    if problem.is_full(post):
        raise ValueError(
            f"action {action} on state {state} does not satisfy the "
            f"response-time constraint; cannot minimize an invalid action"
        )
    kept = [i for i in range(problem.n) if action[i] > 0]
    kept.sort(key=lambda i: problem.cost_functions[i](state[i]), reverse=True)
    post_cost = problem.refresh_cost(post)
    result = list(action)
    for i in kept:
        restored = post_cost + problem.cost_functions[i](state[i])
        if restored <= problem.full_above:
            result[i] = 0
            post_cost = restored
    return tuple(result)
