import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chebquad import moments
from chebquad.errors import NumericalFailure
from chebquad.moments import (
    WeightKind,
    WeightSpec,
    jacobi_moments,
    log_jacobi_moments,
    min_bar,
    moment_asymptotic,
    moments_for,
)

# parameter strategy away from the -1 blowup; half-integers inside the
# range are fine (they route to the banded solver)
params = st.floats(min_value=-0.9, max_value=1.5, allow_nan=False)


def close_to_reference(value, reference, rel=1e-9, tiny=1e-12):
    return abs(value - reference) <= rel * abs(reference) + tiny


# --- known closed forms -----------------------------------------------------


def test_unit_weight_moments():
    # integral of T_k over [-1,1]: 2, 0, -2/3, 0, -2/15
    vals = jacobi_moments(0.0, 0.0, 4).values
    assert np.allclose(vals, [2.0, 0.0, -2.0 / 3.0, 0.0, -2.0 / 15.0], atol=1e-14)


def test_chebyshev_weight_moments_are_orthogonality():
    # against (1-x^2)^(-1/2) every T_k with k >= 1 integrates to zero
    vals = jacobi_moments(-0.5, -0.5, 6).values
    assert vals[0] == pytest.approx(math.pi, rel=1e-14)
    assert np.max(np.abs(vals[1:])) < 1e-13 * math.pi


def test_log_weight_first_moments():
    # G_0 = integral of ln((x+1)/2) = -2; G_1 = integral of x ln((x+1)/2) = 1
    vals = log_jacobi_moments(0.0, 0.0, 1).values
    assert vals[0] == pytest.approx(-2.0, rel=1e-13)
    assert vals[1] == pytest.approx(1.0, rel=1e-13)


# --- equivalence with the independent closed-form reference -----------------

PAIR_SAMPLE = [
    (0.2, -0.3),   # forward route
    (-0.6, -0.6),  # forward, symmetric negative
    (0.5, -0.5),   # banded: beta on a half-integer, alpha above it
    (-0.5, 0.5),   # banded, mirrored
    (0.0, -0.45),  # banded: near-half-integer neighborhood
    (1.0, 0.2),    # forward, one parameter at 1
]
K_SAMPLE = [0, 1, 2, 3, 5, 10, 17, 40]


@pytest.mark.parametrize("alpha,beta", PAIR_SAMPLE)
def test_jacobi_moments_match_closed_form(alpha, beta):
    vals = jacobi_moments(alpha, beta, 40).values
    for k in K_SAMPLE:
        ref = oracles.chebyshev_jacobi_moment(alpha, beta, k)
        assert close_to_reference(vals[k], ref), (alpha, beta, k, vals[k], ref)


@pytest.mark.parametrize("alpha,beta", PAIR_SAMPLE)
def test_log_jacobi_moments_match_closed_form(alpha, beta):
    vals = log_jacobi_moments(alpha, beta, 40).values
    for k in K_SAMPLE:
        ref = oracles.chebyshev_log_jacobi_moment(alpha, beta, k)
        assert close_to_reference(vals[k], ref), (alpha, beta, k, vals[k], ref)


def test_moments_match_adaptive_quadrature():
    # a second, entirely different reference: direct tanh-sinh quadrature
    # of the integrand (safe here because k stays small)
    vals = jacobi_moments(0.2, -0.3, 10).values
    for k in range(11):
        ref = oracles.quad_jacobi_moment(0.2, -0.3, k)
        assert vals[k] == pytest.approx(ref, rel=1e-10)
    gvals = log_jacobi_moments(-0.3, 0.2, 6).values
    for k in range(7):
        ref = oracles.quad_jacobi_moment(-0.3, 0.2, k, log_factor=True)
        assert gvals[k] == pytest.approx(ref, rel=1e-10)


# --- recurrence structure ----------------------------------------------------


@given(alpha=params, beta=params)
@settings(max_examples=40, deadline=None)
def test_jacobi_recurrence_residual(alpha, beta):
    # every returned table satisfies the three-term recurrence row by row,
    # whichever solver produced it
    K = 48
    v = jacobi_moments(alpha, beta, K).values
    mb = min_bar(alpha, beta)
    for k in range(1, K):
        t1 = (alpha + beta + k + 2.0) * v[k + 1]
        t2 = 2.0 * (alpha - beta) * v[k]
        t3 = (alpha + beta - k + 2.0) * v[k - 1]
        scale = max(abs(t1), abs(t2), abs(t3), float(k) ** (-2.0 - 2.0 * mb))
        assert abs(t1 + t2 + t3) <= 1e-10 * scale, (alpha, beta, k)


@pytest.mark.parametrize("alpha,beta", [(0.2, -0.3), (0.5, -0.5), (-0.5, 0.2)])
def test_log_recurrence_residual(alpha, beta):
    # the log-weighted table obeys the same recurrence driven by the
    # plain moments: rhs_k = 2 M_k - M_{k-1} - M_{k+1}
    K = 48
    g = log_jacobi_moments(alpha, beta, K).values
    m = jacobi_moments(alpha, beta, K + 1).values
    for k in range(1, K):
        rhs = 2.0 * m[k] - m[k - 1] - m[k + 1]
        t1 = (alpha + beta + k + 2.0) * g[k + 1]
        t2 = 2.0 * (alpha - beta) * g[k]
        t3 = (alpha + beta - k + 2.0) * g[k - 1]
        scale = max(abs(t1), abs(t2), abs(t3), abs(rhs), 1e-300)
        assert abs(t1 + t2 + t3 - rhs) <= 1e-10 * scale, (alpha, beta, k)


@given(alpha=params, beta=params, k=st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_parameter_swap_symmetry(alpha, beta, k):
    # x -> -x maps the weight (alpha, beta) to (beta, alpha) and T_k to
    # (-1)^k T_k
    direct = jacobi_moments(alpha, beta, k).values[k]
    swapped = jacobi_moments(beta, alpha, k).values[k]
    scale = max(abs(direct), abs(swapped), 1.0)
    assert abs(direct - (-1.0) ** k * swapped) <= 1e-12 * scale


@pytest.mark.parametrize("alpha", [-0.6, -0.5, 0.0, 0.2, 0.5, 1.0])
def test_symmetric_weight_kills_odd_moments(alpha):
    vals = jacobi_moments(alpha, alpha, 41).values
    assert np.max(np.abs(vals[1::2])) <= 1e-13 * abs(vals[0])


# --- solver routing -----------------------------------------------------------


def test_unstable_pairs_use_banded_solver():
    assert jacobi_moments(0.5, -0.5, 40).method == "banded"
    assert jacobi_moments(-0.5, 0.5, 40).method == "banded"
    assert jacobi_moments(0.0, -0.45, 40).method == "banded"  # near-half buffer
    assert log_jacobi_moments(0.0, -0.5, 40).method == "banded"
    assert jacobi_moments(0.2, -0.3, 40).method == "forward"
    assert jacobi_moments(-0.5, -0.5, 40).method == "forward"  # equal: stable


def test_banded_solver_reports_small_residual():
    assert jacobi_moments(0.5, -0.5, 40).est_rel_error < 1e-12
    assert log_jacobi_moments(0.0, -0.5, 40).est_rel_error < 1e-10


def test_forward_drift_in_the_unstable_class():
    # what the banded solver buys: with beta = -1/2 the slowly-decaying
    # k^(-1) recurrence branch is absent from the true solution, so any
    # roundoff the forward pass injects grows relatively like k^3.  By
    # k = 4096 the naive forward table has drifted visibly while the
    # banded table still sits on the asymptotic curve.
    alpha, beta = 1.0, -0.5
    K = 4096
    good = jacobi_moments(alpha, beta, K).values
    naive = list(good[:2])
    for k in range(1, K):
        nxt = (
            -2.0 * (alpha - beta) * naive[k]
            - (alpha + beta - k + 2.0) * naive[k - 1]
        ) / (alpha + beta + k + 2.0)
        naive.append(nxt)
    w = WeightSpec(WeightKind.JACOBI, alpha, beta)
    asym = moment_asymptotic(w, K)
    assert abs(good[K] / asym - 1.0) < 3e-6
    assert abs(naive[K] / asym - 1.0) > 5e-6
    assert abs(naive[K] - good[K]) > 1e-7 * abs(good[K])


def test_tables_are_consistent_across_lengths():
    # cache bucketing must never change returned values
    short = jacobi_moments(0.5, -0.5, 40).values
    long = jacobi_moments(0.5, -0.5, 100).values
    assert np.array_equal(short, long[:41])
    short = log_jacobi_moments(0.2, -0.3, 40).values
    long = log_jacobi_moments(0.2, -0.3, 300).values
    assert np.array_equal(short, long[:41])


# --- asymptotics ---------------------------------------------------------------


def test_moment_asymptotic_ratio_at_k200():
    w = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
    ratio = jacobi_moments(0.2, -0.3, 200).values[200] / moment_asymptotic(w, 200)
    assert 0.9 < ratio < 1.1
    wl = WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)
    ratio = log_jacobi_moments(0.0, 0.0, 200).values[200] / moment_asymptotic(wl, 200)
    assert 0.9 < ratio < 1.1


# --- WeightSpec and dispatch ----------------------------------------------------


def test_weight_spec_evaluates_the_weight():
    w = WeightSpec(WeightKind.JACOBI, 0.3, -0.2)
    x = 0.4
    assert w(x) == pytest.approx((1 - x) ** 0.3 * (1 + x) ** (-0.2), rel=1e-14)
    wl = WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)
    assert wl(x) == pytest.approx(math.log((x + 1) / 2), rel=1e-14)
    assert wl(x) < 0.0  # the log factor is negative on (-1, 1)


def test_weight_spec_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        WeightSpec(WeightKind.JACOBI, -1.0, 0.0)
    with pytest.raises(ValueError):
        WeightSpec(WeightKind.LOGJACOBI, 0.0, -1.2)
    # inf passes the > -1 test but gives all-NaN moments
    with pytest.raises(ValueError, match="finite"):
        WeightSpec(WeightKind.JACOBI, math.inf, 0.0)
    with pytest.raises(ValueError, match="finite"):
        WeightSpec(WeightKind.LOGJACOBI, 0.0, math.inf)
    with pytest.raises(ValueError):
        WeightSpec(WeightKind.JACOBI, math.nan, 0.0)


def test_moments_for_dispatches_on_kind():
    wj = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
    assert np.array_equal(moments_for(wj, 20).values, jacobi_moments(0.2, -0.3, 20).values)
    wl = WeightSpec(WeightKind.LOGJACOBI, 0.2, -0.3)
    assert np.array_equal(moments_for(wl, 20).values, log_jacobi_moments(0.2, -0.3, 20).values)


def test_moment_table_validation():
    with pytest.raises(ValueError):
        jacobi_moments(0.0, 0.0, -1)
    with pytest.raises(ValueError):
        jacobi_moments(-1.5, 0.0, 4)
    with pytest.raises(TypeError):  # 2.7 used to give the K = 2 table
        jacobi_moments(0.0, 0.0, 2.7)
    with pytest.raises(TypeError):
        moments_for(WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0), 4.0)
    assert moments_for(WeightSpec(WeightKind.JACOBI, 0.0, 0.0), np.int64(3)).K == 3
    # the weight is checked before any recurrence runs or any table is cached
    before = moments._jacobi_values.cache_info()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            jacobi_moments(bad, 0.0, 4)
        with pytest.raises(ValueError, match="finite"):
            log_jacobi_moments(0.0, bad, 4)
    assert moments._jacobi_values.cache_info() == before
    # a seed or boundary value beyond float64 used to escape as OverflowError
    for kind, alpha, beta, K in (("jacobi", 1030.0, 0.0, 3), ("jacobi", 600.0, 600.0, 3),
                                 ("jacobi", 100.0, 0.5, 4), ("logjacobi", 100.0, 0.5, 4)):
        with pytest.raises(NumericalFailure, match=f"alpha={alpha}, beta={beta}"):
            moments_for(WeightSpec(WeightKind(kind), alpha, beta), K)


def test_min_bar_half_integer_convention():
    # at a -1/2 parameter the endpoint term degenerates (its cosine factor
    # vanishes), so the decay is governed by the other parameter
    assert min_bar(-0.5, -0.5) == 0.0
    assert min_bar(0.5, -0.5) == 0.5
    assert min_bar(-0.5, 0.2) == 0.2
    assert min_bar(-0.6, -0.5) == -0.6
    assert min_bar(0.3, 0.7) == 0.3
