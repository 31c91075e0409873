"""Property tests for ``slo.classify`` at and around its band edges.

The classifier uses an ``_EPS`` tolerance on both thresholds so that a
cost computed as *exactly* the limit (or exactly the near-breach edge)
by a slightly different floating-point route never flips category.
These properties pin the edges down:

* totality -- every finite (limit, cost) classifies without raising;
* exact edges -- ``cost == limit`` and ``cost == NEAR_FRACTION*limit``
  are NEAR_BREACH, a hair inside ``_EPS`` of the limit is still
  NEAR_BREACH, and clear margins on either side give BREACH / None;
* monotonicity -- severity never decreases as cost grows;
* clamped limits -- non-positive limits never yield None.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import slo
from repro.obs.slo import _EPS

# Bounded away from 0 and infinity so multiplicative margins stay well
# clear of the _EPS absolute tolerance.
LIMITS = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
COSTS = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

_SEVERITY = {None: 0, slo.NEAR_BREACH: 1, slo.BREACH: 2}


def _classify_quiet(limit, cost):
    """classify() with the one-shot invalid-limit warning suppressed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return slo.classify(limit, cost)


class TestTotality:
    @given(limit=st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e9, max_value=1e9),
           cost=COSTS)
    @settings(max_examples=200)
    def test_always_classifies(self, limit, cost):
        assert _classify_quiet(limit, cost) in (
            None, slo.NEAR_BREACH, slo.BREACH,
        )


class TestExactEdges:
    @given(limit=LIMITS)
    def test_cost_equal_to_limit_is_near_breach(self, limit):
        assert slo.classify(limit, limit) == slo.NEAR_BREACH

    @given(limit=LIMITS)
    def test_cost_on_near_edge_is_near_breach(self, limit):
        edge = slo.NEAR_FRACTION * limit
        assert slo.classify(limit, edge) == slo.NEAR_BREACH

    @given(limit=LIMITS)
    def test_within_eps_of_limit_is_not_a_breach(self, limit):
        # A cost that overshoots the limit by less than the tolerance
        # (e.g. the same sum accumulated in a different order) must not
        # read as a breach.
        assert slo.classify(limit, limit + _EPS / 2) == slo.NEAR_BREACH

    @given(limit=LIMITS)
    def test_clear_overshoot_is_a_breach(self, limit):
        assert slo.classify(limit, limit * 1.01) == slo.BREACH

    @given(limit=LIMITS)
    def test_clear_margin_is_none(self, limit):
        comfortable = slo.NEAR_FRACTION * limit * 0.99
        assert slo.classify(limit, comfortable) is None

    def test_eps_is_small_but_positive(self):
        assert 0 < _EPS < 1e-6


class TestMonotonicity:
    @given(limit=LIMITS, cost_a=COSTS, cost_b=COSTS)
    @settings(max_examples=200)
    def test_severity_never_decreases_with_cost(self, limit, cost_a, cost_b):
        lo, hi = sorted((cost_a, cost_b))
        assert (
            _SEVERITY[slo.classify(limit, lo)]
            <= _SEVERITY[slo.classify(limit, hi)]
        )


class TestClampedLimits:
    @given(limit=st.floats(min_value=-1e6, max_value=0.0, allow_nan=False),
           cost=COSTS)
    @settings(max_examples=200)
    def test_never_none(self, limit, cost):
        assert _classify_quiet(limit, cost) is not None

    @given(limit=st.floats(min_value=-1e6, max_value=0.0, allow_nan=False),
           cost=st.floats(min_value=1e-6, max_value=1e9))
    def test_any_positive_cost_breaches(self, limit, cost):
        assert _classify_quiet(limit, cost) == slo.BREACH

    @given(limit=st.floats(min_value=-1e6, max_value=0.0, allow_nan=False))
    def test_zero_cost_is_near_breach(self, limit):
        assert _classify_quiet(limit, 0.0) == slo.NEAR_BREACH
