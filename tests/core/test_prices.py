"""The planners' shortcuts change no bit and no error.

Three shortcuts sit under every planner, and each is checked here against
the per-call or per-vector rule it replaces:

* **bulk pricing** -- ``f.prices(upto)`` is ``[f(1), ..., f(upto)]`` to the
  last bit for every cost family, and ``min_batch_rates`` built on it
  equals the per-k reference on the calibrated TPC-R curves;
* **table-priced ONLINE** -- TimeToFull probing the policy's own cost
  tables takes the actions, and pays the cost, that probing the cost
  functions does;
* **one-pass validation** -- arrival and action sequences, and one step's
  action, are accepted or refused exactly as the per-vector rule does:
  the same vectors, or the same error type and message at the same ``t``.
"""

from operator import sub, truediv

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.costfuncs import (
    BlockIOCost,
    ConcaveCost,
    LinearCost,
    PiecewiseLinearCost,
    StepCost,
    TabulatedCost,
)
from repro.core.online import OnlinePolicy
from repro.core.plan import Plan
from repro.core.problem import (
    CostModel,
    ProblemInstance,
    int_vector,
    int_vectors,
    is_nonnegative,
)
from repro.core.simulator import simulate_policy
from repro.experiments import common
from repro.experiments.fig7_nonuniform import LIMIT_FACTOR
from repro.workloads.arrivals import (
    FAST_STABLE,
    FAST_UNSTABLE,
    stochastic_arrivals,
)


def hexes(values):
    return [v.hex() for v in values]


def per_k(f, upto):
    return [f(k) for k in range(1, upto + 1)]


# ----------------------------------------------------------------------
# Bulk pricing
# ----------------------------------------------------------------------

linear_costs = st.builds(
    LinearCost, slope=st.floats(0.05, 5.0), setup=st.floats(0.0, 10.0)
)
concave_costs = st.builds(
    ConcaveCost, coeff=st.floats(0.5, 5.0), exponent=st.floats(0.2, 1.0)
)
block_costs = st.builds(
    BlockIOCost,
    io_cost=st.floats(0.5, 5.0),
    block_size=st.integers(1, 8),
    slope=st.floats(0.0, 1.0),
)
step_costs = st.builds(
    StepCost,
    eps=st.integers(1, 10).map(lambda m: 1.0 / m),
    limit=st.floats(0.5, 50.0),
)
tabulated_costs = st.lists(
    st.tuples(st.integers(0, 60), st.floats(0.0, 20.0)),
    min_size=1,
    max_size=8,
).filter(lambda s: any(k > 0 for k, __ in s)).map(TabulatedCost)


@st.composite
def piecewise_costs(draw):
    """Concave knots: slopes in quarters, so every knot cost is exact."""
    n = draw(st.integers(1, 5))
    runs = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    slopes = sorted(
        draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)),
        reverse=True,
    )
    knots, k, c = [(0, 0.0)], 0, 0.0
    for run, slope in zip(runs, slopes):
        k, c = k + run, c + run * slope / 4
        knots.append((k, c))
    return PiecewiseLinearCost(knots)


@st.composite
def upto_around_knots(draw, keys):
    """Below the first non-zero knot, exactly at a knot, or past the last."""
    first = min(k for k in keys if k > 0)
    return draw(
        st.one_of(
            st.integers(0, first - 1),
            st.sampled_from(keys),
            st.integers(max(keys) + 1, max(keys) + 40),
        )
    )


@pytest.mark.parametrize(
    "family",
    [linear_costs, concave_costs, block_costs, step_costs],
    ids=["linear", "concave", "block-io", "step"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_prices_are_the_per_k_floats(family, data):
    f = data.draw(family)
    upto = data.draw(st.integers(0, 120))
    assert hexes(f.prices(upto)) == hexes(per_k(f, upto))


@given(f=tabulated_costs, data=st.data())
@settings(max_examples=200, deadline=None)
def test_tabulated_prices_are_the_per_k_floats(f, data):
    upto = data.draw(upto_around_knots([k for k, __ in f.samples]))
    assert hexes(f.prices(upto)) == hexes(per_k(f, upto))


@given(f=piecewise_costs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_piecewise_prices_are_the_per_k_floats(f, data):
    upto = data.draw(upto_around_knots([k for k, __ in f.knots]))
    assert hexes(f.prices(upto)) == hexes(per_k(f, upto))


def test_tabulated_prices_at_the_edges():
    f = TabulatedCost([(3, 1.0), (7, 2.3), (10, 2.9)])
    for upto in (0, 1, 2, 3, 6, 7, 9, 10, 11, 25):
        assert hexes(f.prices(upto)) == hexes(per_k(f, upto)), upto
    assert f.prices(0) == []


def reference_min_rates(problem):
    """``min_batch_rates`` priced one ``f(k)`` call at a time."""
    rates = []
    for f, b in zip(problem.cost_functions, problem.batch_bounds()):
        if b > 65536:
            rates.append(0.0)
            continue
        sizes = range(1, b + 1)
        rates.append(min(map(truediv, [f(k) for k in sizes], sizes)))
    return rates


@pytest.mark.parametrize("factor", [1.0, LIMIT_FACTOR, 3.0])
def test_min_batch_rates_on_the_calibrated_curves(factor):
    costs = common.cost_functions(scale=0.002)
    limit = common.default_limit(costs) * factor
    problem = common.make_problem([(20, 1)] * 30, limit, costs)
    assert hexes(problem.min_batch_rates()) == hexes(
        reference_min_rates(problem)
    )
    # The tables the pass left warm hold each f(k), bit for bit.
    for table, b in zip(problem.cost_tables, problem.batch_bounds()):
        assert len(table) == b
        assert hexes(table[k] for k in range(1, b + 1)) == hexes(
            per_k(table.f, b)
        )


# ----------------------------------------------------------------------
# ONLINE priced from its own tables
# ----------------------------------------------------------------------


class CallingOnline(OnlinePolicy):
    """ONLINE whose TimeToFull calls the cost functions on every probe."""

    def reset(self, cost_functions, limit):
        super().reset(cost_functions, limit)
        self._lookups = self.cost_functions


@given(
    seed=st.integers(0, 10_000),
    params=st.sampled_from([FAST_STABLE, FAST_UNSTABLE]),
    factor=st.sampled_from([1.0, LIMIT_FACTOR]),
)
@settings(max_examples=12, deadline=None)
def test_online_on_its_tables_decides_as_on_the_functions(
    seed, params, factor
):
    costs = common.cost_functions(scale=0.002)
    arrivals = stochastic_arrivals(
        (params, params), steps=160, seed=seed, scale=common.ARRIVAL_MIX
    )
    problem = common.make_problem(
        arrivals, common.default_limit(costs) * factor, costs
    )
    tabled, calling = OnlinePolicy(), CallingOnline()
    trace = simulate_policy(problem, tabled)
    reference = simulate_policy(problem, calling)
    assert trace.plan == reference.plan
    assert tabled.spent.hex() == calling.spent.hex()
    assert trace.total_cost.hex() == reference.total_cost.hex()


# ----------------------------------------------------------------------
# One-pass validation
# ----------------------------------------------------------------------


def reference_rows(rows, what, width=None):
    """The per-vector rule: each row converted, sized, then signed."""
    cleaned = []
    for t, raw in enumerate(rows):
        v = int_vector(raw, what, t)
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValueError(
                f"{what} at t={t} has {len(v)} components, expected {width}"
            )
        if not is_nonnegative(v):
            raise ValueError(f"{what} at t={t} has negative components")
        cleaned.append(v)
    return tuple(cleaned)


def outcome(fn, *args):
    """What ``fn`` returns (with each component's type) or raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # the type and text are the outcome
        return type(exc), str(exc)
    return value, [[type(x) for x in v] for v in value]


entries = st.one_of(
    st.integers(-2, 6),
    st.integers(0, 6).map(float),
    st.sampled_from([2.5, -0.5, True, False, "x", "3"]),
)
rows = st.lists(
    st.lists(entries, min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=6,
)


@given(rows=rows, width=st.sampled_from([None, 1, 2]))
@settings(max_examples=300, deadline=None)
def test_one_pass_rows_match_the_per_vector_rule(rows, width):
    assert outcome(int_vectors, rows, "action", width) == outcome(
        reference_rows, rows, "action", width
    )


CLEAN = (1, 2)
#: A bad step, and the error's text after "<what> at t=<t> ".
BAD_ROWS = {
    "fractional": ((1.5, 2), "has non-integer components: (1.5, 2)"),
    "negative": ((-1, 2), "has negative components"),
    "numeric-string": (("3", 2), "has non-integer components: ('3', 2)"),
}


def instance(arrivals):
    return ProblemInstance([LinearCost(1.0)] * 2, 10.0, arrivals)


@pytest.mark.parametrize("t", [0, 3])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_instance_and_plan_name_a_bad_entry(case, t):
    bad, text = BAD_ROWS[case]
    sequence = [CLEAN] * 5
    sequence[t] = bad
    for make, what in ((instance, "arrival vector"), (Plan, "action")):
        with pytest.raises(ValueError) as raised:
            make(sequence)
        assert str(raised.value) == f"{what} at t={t} {text}"


@pytest.mark.parametrize("t", [0, 3])
def test_a_string_entry_is_int_s_own_error(t):
    sequence = [CLEAN] * 5
    sequence[t] = ("x", 2)
    for make in (instance, Plan):
        with pytest.raises(ValueError) as raised:
            make(sequence)
        assert str(raised.value) == (
            "invalid literal for int() with base 10: 'x'"
        )


@pytest.mark.parametrize("t", [0, 3])
def test_instance_names_a_wrong_width(t):
    arrivals = [CLEAN] * 5
    arrivals[t] = (1, 2, 3)
    with pytest.raises(ValueError) as raised:
        instance(arrivals)
    assert str(raised.value) == (
        f"arrival vector at t={t} has 3 components, expected 2"
    )


def test_plan_width_is_the_first_actions():
    with pytest.raises(ValueError) as raised:
        Plan([(1, 2, 3)] + [CLEAN] * 4)  # t=0 sets the width
    assert str(raised.value) == "action at t=1 has 2 components, expected 3"
    with pytest.raises(ValueError) as raised:
        Plan([CLEAN] * 3 + [(1, 2, 3), CLEAN])
    assert str(raised.value) == "action at t=3 has 3 components, expected 2"


def test_the_first_bad_step_and_check_win():
    # t=1 is fractional, negative and too wide at once; t=2 is a string.
    arrivals = [CLEAN, (-1.5, 2, 3), ("x", 2)]
    with pytest.raises(ValueError) as raised:
        instance(arrivals)
    assert str(raised.value) == (
        "arrival vector at t=1 has non-integer components: (-1.5, 2, 3)"
    )
    with pytest.raises(ValueError, match=r"t=1 has 3 components"):
        instance([CLEAN, (-1, 2, 3)])


def test_a_non_iterable_step_is_a_type_error():
    with pytest.raises(TypeError):
        ProblemInstance([LinearCost(1.0)], 10.0, [(1,), 5])


def reference_check(model, pre, action, forced=False):
    """``check_action`` one component at a time."""
    for k, pending in zip(action, pre, strict=True):
        if k < 0:
            raise ValueError(f"action {action} has negative components")
        if k > pending:
            raise ValueError(f"action {action} exceeds backlog {pre}")
    post = tuple(map(sub, pre, action))
    cost = model.refresh_cost(post)
    if not forced and cost > model.full_above:
        raise ValueError(
            f"post-action state {post} violates C={model.limit:.4g} "
            f"(refresh cost {cost:.4g})"
        )
    return post, cost


class TestCheckAction:
    model = CostModel([LinearCost(1.0, 1.0)] * 2, 4.0)

    def test_component_zero_comes_first(self):
        with pytest.raises(ValueError, match="exceeds backlog"):
            self.model.check_action((3, 3), (5, -1))
        with pytest.raises(ValueError, match="negative components"):
            self.model.check_action((3, 3), (-1, 5))

    def test_length_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError):
            self.model.check_action((3, 3), (1,))
        with pytest.raises(ValueError):
            self.model.check_action((3,), (1, 1))

    @given(
        pre=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        action=st.lists(st.integers(-2, 7), min_size=1, max_size=3),
        forced=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_component_rule(self, pre, action, forced):
        pre, action = tuple(pre), tuple(action)

        def run(check):
            try:
                post, cost = check(pre, action, forced)
            except ValueError as exc:
                return str(exc)
            return post, cost.hex()

        assert run(self.model.check_action) == run(
            lambda *a: reference_check(self.model, *a)
        )
