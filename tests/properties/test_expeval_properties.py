"""Property-based tests for the exponential evaluator."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.solver import ExponentialEvaluator
from repro.solver.expeval import exact_f

_EVALUATOR = ExponentialEvaluator(max_error=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    tau=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
    )
)
def test_interpolation_error_bounded(tau):
    err = np.abs(_EVALUATOR(tau) - exact_f(tau))
    assert err.max() <= 1e-8 * 1.05


@settings(max_examples=100, deadline=None)
@given(
    tau=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    )
)
def test_range_is_unit_interval(tau):
    values = _EVALUATOR(tau)
    assert (values >= -1e-12).all()
    assert (values <= 1.0 + 1e-12).all()


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=25.0),
    b=st.floats(min_value=0.0, max_value=25.0),
)
def test_monotone(a, b):
    lo, hi = sorted((a, b))
    va, vb = _EVALUATOR(np.array([lo, hi]))
    assert vb >= va - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    rel=st.sampled_from([1e-3, 1e-4, 1e-5]),
    tau=st.one_of(
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e-100, allow_nan=False),
    ),
)
def test_relative_error_bounded_into_tau_zero(rel, tau):
    """A table built with ``max_relative_error=r`` stays within ``r`` of
    ``-expm1(-tau)`` in *relative* terms all the way into ``tau -> 0``,
    where the absolute bound alone says nothing useful."""
    evaluator = ExponentialEvaluator.shared(max_error=1e-6, max_relative_error=rel)
    exact = -np.expm1(-tau)
    approx = float(evaluator(np.array([tau]))[0])
    if exact == 0.0:
        assert approx == 0.0
    else:
        assert abs(approx - exact) <= rel * exact * 1.05
