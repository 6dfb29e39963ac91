import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

import oracles
from chebquad.chebcore import (
    CHEBYSHEV_FAMILIES,
    Family,
    cheb_expansion_coeffs,
    chebyshev_T,
    interp_weights,
    make_points,
)


# --- point sets -----------------------------------------------------------


def test_fejer1_points_are_chebyshev_zeros():
    n = 9
    pts = make_points(Family.FEJER1, n)
    expected = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n))
    assert np.allclose(pts, expected, atol=0, rtol=0)
    # zeros of T_n, strictly inside the interval, strictly decreasing
    assert np.max(np.abs(chebyshev_T(n, pts))) < 1e-13
    assert np.all(np.abs(pts) < 1.0)
    assert np.all(np.diff(pts) < 0.0)


def test_fejer2_points_are_second_kind_zeros():
    n = 8
    pts = make_points(Family.FEJER2, n)
    expected = np.cos(np.arange(1, n + 1) * np.pi / (n + 1.0))
    assert np.allclose(pts, expected, atol=0, rtol=0)
    # sin((n+1) theta) vanishes at every node
    assert np.max(np.abs(np.sin((n + 1) * np.arccos(pts)))) < 1e-13
    assert np.all(np.abs(pts) < 1.0)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 33])
def test_clenshaw_curtis_points_pin_special_values(n):
    pts = make_points(Family.CLENSHAW_CURTIS, n)
    assert pts[0] == 1.0  # exact, not approximate
    assert pts[-1] == -1.0
    if n % 2 == 1:
        assert pts[(n - 1) // 2] == 0.0
    assert np.allclose(pts, np.cos(np.arange(n) * np.pi / (n - 1.0)), atol=1e-15)
    assert np.all(np.diff(pts) < 0.0)


def test_make_points_rejects_bad_requests():
    with pytest.raises(ValueError):
        make_points(Family.CLENSHAW_CURTIS, 1)
    with pytest.raises(ValueError):
        make_points(Family.FEJER1, 0)
    with pytest.raises(ValueError):
        make_points(Family.GAUSS_LEGENDRE, 5)
    with pytest.raises(TypeError):
        make_points(Family.FEJER1, 2.5)


# --- polynomial evaluation -------------------------------------------------


def test_chebyshev_T_matches_numpy():
    x = np.linspace(-1.0, 1.0, 41)
    for j in (0, 1, 2, 7, 20):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0
        assert np.allclose(chebyshev_T(j, x), npcheb.chebval(x, coeffs), atol=1e-12)


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_chebyshev_T_three_term_recurrence(j, x):
    lhs = chebyshev_T(j + 1, x)
    rhs = 2.0 * x * chebyshev_T(j, x) - chebyshev_T(j - 1, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chebyshev_T_clamps_roundoff_but_rejects_outside():
    # endpoint values that drifted by a few ulps must still evaluate
    assert chebyshev_T(3, 1.0 + 5e-15) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        chebyshev_T(3, 1.01)
    with pytest.raises(ValueError):
        chebyshev_T(-1, 0.5)


# --- node-value aliasing (what makes the error tables possible) ------------


@pytest.mark.parametrize("n", [4, 7, 16])
def test_fejer1_node_aliasing(n):
    # T_{2pn +- j} agrees with (-1)^p T_j at every Fejer-1 node.
    pts = make_points(Family.FEJER1, n)
    for p in range(1, 4):
        for j in range(n):
            base = (-1.0) ** p * chebyshev_T(j, pts)
            for m in (2 * p * n - j, 2 * p * n + j):
                assert np.max(np.abs(chebyshev_T(m, pts) - base)) < 1e-12


@pytest.mark.parametrize("n", [4, 7, 16])
def test_fejer2_node_aliasing(n):
    # T_{2p(n+1) +- j} agrees with T_j at every Fejer-2 node (no sign flip).
    pts = make_points(Family.FEJER2, n)
    for p in range(1, 4):
        for j in range(n):
            base = chebyshev_T(j, pts)
            for m in (2 * p * (n + 1) - j, 2 * p * (n + 1) + j):
                assert np.max(np.abs(chebyshev_T(m, pts) - base)) < 1e-12


# --- interpolatory weights ---------------------------------------------------


@st.composite
def _samples_and_moments(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    values = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    return np.array(draw(values)), np.array(draw(values))


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@given(data=_samples_and_moments())
@settings(max_examples=40, deadline=None)
def test_interp_fft_agrees_with_direct(family, data):
    # The transpose identity: the fast weights against the direct O(n^2)
    # interpolation coefficients, sum_i w_i f_i = sum_j b_j(f) m_j.
    samples, moments = data
    fast = math.fsum(interp_weights(family, moments) * samples)
    slow = math.fsum(oracles.interp_coeffs_direct(family, samples) * moments)
    scale = (1.0 + np.max(np.abs(samples))) * (1.0 + np.max(np.abs(moments)))
    assert abs(fast - slow) < 1e-12 * scale


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize("n", [2, 5, 12])
def test_interpolant_reproduces_samples(family, n):
    rng = np.random.default_rng(7)
    pts = make_points(family, n)
    samples = rng.standard_normal(n)
    q = oracles.interp_coeffs_direct(family, samples)
    recovered = oracles.cheb_eval(q, pts)
    assert np.max(np.abs(recovered - samples)) < 1e-11


def test_cubic_interpolation_is_exact():
    # x^3 = (3 T_1 + T_3) / 4; four points determine it exactly.
    pts = make_points(Family.FEJER2, 4)
    b = oracles.interp_coeffs_direct(Family.FEJER2, pts**3)
    assert np.allclose(b, [0.0, 0.75, 0.0, 0.25], atol=1e-14)


def test_interp_weights_input_validation():
    with pytest.raises(ValueError):
        interp_weights(Family.FEJER1, [])
    with pytest.raises(ValueError):
        interp_weights(Family.FEJER1, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        interp_weights(Family.CLENSHAW_CURTIS, [1.0])
    with pytest.raises(ValueError):
        interp_weights(Family.GAUSS_LEGENDRE, [1.0, 2.0])


# --- expansion coefficients -------------------------------------------------


def test_expansion_coeffs_of_exponential():
    # exp(x) = I_0(1) + 2 sum_j I_j(1) T_j, so primed a_j = 2 I_j(1).
    a = cheb_expansion_coeffs(np.exp, count=12, oversample=64)
    expected = 2.0 * scipy.special.iv(np.arange(12), 1.0)
    assert np.allclose(a, expected, rtol=1e-13, atol=1e-15)


def test_expansion_coeffs_decay_for_kink_function():
    # |x - 0.3|^1.5 has coefficients oscillating inside a j^(-2.5) envelope;
    # dyadic block maxima must fall by about 2^2.5 per octave.
    f = lambda x: np.abs(x - 0.3) ** 1.5
    a = np.abs(cheb_expansion_coeffs(f, count=512, oversample=4096))
    block = lambda lo: np.max(a[lo : 2 * lo])
    for lo in (32, 64, 128):
        ratio = block(lo) / block(2 * lo)
        assert 3.5 < ratio < 9.0, f"octave {lo}: ratio {ratio}"


def test_expansion_coeffs_validation():
    with pytest.raises(ValueError):
        cheb_expansion_coeffs(np.exp, count=0, oversample=64)
    with pytest.raises(ValueError):
        cheb_expansion_coeffs(np.exp, count=10, oversample=39)


def test_cheb_eval_primed_convention():
    # the oracle evaluator under both sum conventions
    coeffs = np.array([2.0, 0.0, 0.0])
    x = np.array([-0.7, 0.0, 0.4])
    assert np.allclose(oracles.cheb_eval(coeffs, x), 2.0)
    assert np.allclose(oracles.cheb_eval(coeffs, x, primed=True), 1.0)
    assert oracles.cheb_eval(coeffs, 0.3, primed=True) == pytest.approx(1.0)
