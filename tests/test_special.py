import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebquad.special import beta, digamma

EULER_GAMMA = 0.5772156649015329


def test_digamma_at_one_is_minus_euler_gamma():
    # recurrence + series accumulate a few ulps; 1e-14 reflects the
    # actual accuracy budget of the implementation
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)


def test_digamma_at_half():
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-14)


@pytest.mark.parametrize(
    "x", [-2.5, -0.3, 0.05, 0.5, 1.0, 2.0, 3.7, 9.99, 10.01, 42.0, 123.4]
)
def test_digamma_matches_mpmath(x):
    assert digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-14, abs=1e-14)


@given(st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_digamma_upward_recurrence(x):
    # Psi(x+1) = Psi(x) + 1/x; both sides go through different shift counts
    # so this exercises the recurrence/series split.
    lhs = digamma(x + 1.0)
    rhs = digamma(x) + 1.0 / x
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_digamma_rejects_poles(x):
    with pytest.raises(ValueError):
        digamma(x)


def test_beta_known_values():
    assert beta(1.0, 4.0) == pytest.approx(0.25, rel=1e-15)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_beta_symmetry(x, y):
    assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta(-0.5, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, 0.0)
