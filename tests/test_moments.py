import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from chebquad import moments, special
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
# range are fine (they route to the extended-precision recurrence)
params = st.floats(min_value=-0.9, max_value=1.5, allow_nan=False)


def close_to_reference(value, reference, rel=1e-9, tiny=1e-12):
    return abs(value - reference) <= rel * abs(reference) + tiny


def within_one_ulp(values, references):
    references = np.asarray(references)
    return bool(np.all(np.abs(np.asarray(values) - references) <= np.spacing(np.abs(references))))


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


@pytest.mark.parametrize(
    "alpha, beta",
    [(-0.6, -0.6), (-0.3, 0.2), (0.0, -0.5), (0.2, 0.5), (0.5, 1.5), (-0.5, -0.5), (0.0, 1.0)],
)
def test_seeds_match_40_digits(alpha, beta):
    # one closed form in both arithmetics: float64 (special.beta, special.digamma)
    # against mpmath at 40 digits (mp.beta, mp.digamma), Jacobi and log-Jacobi
    for log in (False, True):
        got = moments._seeds(alpha, beta, log, special.beta, special.digamma)
        with mp.workdps(40):
            want = moments._seeds(mp.mpf(alpha), mp.mpf(beta), log, mp.beta, mp.digamma)
        assert got == pytest.approx([float(v) for v in want], rel=1e-13, abs=0.0)


# --- equivalence with the independent closed-form reference -----------------

PAIR_SAMPLE = [
    (0.2, -0.3),   # forward route
    (-0.6, -0.6),  # forward, symmetric negative
    (0.5, -0.5),   # extended: beta on a half-integer, alpha above it
    (-0.5, 0.5),   # extended, mirrored
    (0.0, -0.45),  # extended: near-half-integer neighborhood
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
    assert jacobi_moments(0.5, -0.5, 40).method == "extended"
    assert jacobi_moments(-0.5, 0.5, 40).method == "extended"
    assert jacobi_moments(0.0, -0.45, 40).method == "extended"  # near-half buffer
    assert log_jacobi_moments(0.0, -0.5, 40).method == "extended"
    assert jacobi_moments(0.2, -0.3, 40).method == "forward"
    assert jacobi_moments(-0.5, -0.5, 40).method == "forward"  # equal: stable


def test_banded_solver_reports_small_residual():
    assert jacobi_moments(0.5, -0.5, 40).est_rel_error < 1e-12
    assert log_jacobi_moments(0.0, -0.5, 40).est_rel_error < 1e-10


def test_forward_drift_in_the_unstable_class():
    # what the extended route buys: with beta = -1/2 the slowly-decaying
    # k^(-1) recurrence branch is absent from the true solution, so any
    # roundoff a float64 forward pass injects grows relatively like k^3.
    # By k = 4096 the naive float64 table has drifted visibly (4.8e-6)
    # while the extended table matches the closed form
    # M_K = (3 sqrt(2) / 2) / ((K^2 - 1/4)(K^2 - 9/4)).
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
    exact = 1.5 * math.sqrt(2.0) / ((K * K - 0.25) * (K * K - 2.25))
    assert abs(good[K] / exact - 1.0) < 1e-13
    assert abs(naive[K] / exact - 1.0) > 4e-6
    assert abs(naive[K] - good[K]) > 1e-7 * abs(good[K])
    # the leading term alone: the beta = -1/2 endpoint contributes exactly 0
    w = WeightSpec(WeightKind.JACOBI, alpha, beta)
    assert moment_asymptotic(w, K) == pytest.approx(1.5 * math.sqrt(2.0) / K**4, rel=1e-15)


@given(
    kind=st.sampled_from(["jacobi", "logjacobi"]),
    half_odd=st.sampled_from([-0.5, 0.5, 1.5, 2.5]),
    offset=st.one_of(st.just(0.0), st.sampled_from([-1e-8, 1e-8]), st.floats(-0.049, 0.049)),
    gap=st.floats(min_value=0.1, max_value=3.0),
    mirrored=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_extended_route_is_correctly_rounded(kind, half_odd, offset, gap, mirrored):
    # smaller parameter at, 1e-8 from, or within the margin of a half-odd
    # integer.  The larger one keeps clear of half-odd integers: with both
    # near one, the moments beyond k = 1 are tiny cancellations of M_0 and
    # the 20 guard digits no longer give the last bit.
    smaller = half_odd + offset
    larger = smaller + gap
    assume(abs(larger % 1.0 - 0.5) > 0.06)
    alpha, beta = (smaller, larger) if mirrored else (larger, smaller)
    table = moments_for(WeightSpec(WeightKind(kind), alpha, beta), 40)
    assert table.method == "extended"
    ref = oracles.chebyshev_jacobi_moment if kind == "jacobi" else oracles.chebyshev_log_jacobi_moment
    assert within_one_ulp(table.values, [ref(alpha, beta, k) for k in range(41)])


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


def test_moment_asymptotic_takes_integer_k_only():
    w = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
    assert moment_asymptotic(w, np.int64(200)) == moment_asymptotic(w, 200)
    for k in (math.nan, math.inf, 200.0):
        with pytest.raises(TypeError):
            moment_asymptotic(w, k)
    with pytest.raises(ValueError):
        moment_asymptotic(w, 0)


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
    # a seed or moment beyond float64 used to escape as OverflowError or,
    # as a product of two finite factors (1022, -0.99), as an inf/NaN table;
    # on the extended route an mpf beyond float64 would round silently to inf
    for kind, alpha, beta, K in (("jacobi", 1030.0, 0.0, 3), ("jacobi", 600.0, 600.0, 3),
                                 ("jacobi", 1022.0, -0.99, 3), ("jacobi", 1100.0, 0.5, 4)):
        with pytest.raises(NumericalFailure, match=f"alpha={alpha}, beta={beta}"):
            moments_for(WeightSpec(WeightKind(kind), alpha, beta), K)
    # M_0 = 3.1188914686080845e+27 is finite; only the old asymptotic
    # boundary, Gamma(202), overflowed
    assert jacobi_moments(100.0, 0.5, 4).values[0] == 3.1188914686080845e27
    for kind, ref in (("jacobi", oracles.chebyshev_jacobi_moment),
                      ("logjacobi", oracles.chebyshev_log_jacobi_moment)):
        table = moments_for(WeightSpec(WeightKind(kind), 100.0, 0.5), 4)
        assert within_one_ulp(table.values, [ref(100.0, 0.5, k) for k in range(5)]), kind


def test_min_bar_half_integer_convention():
    # at a -1/2 parameter the endpoint term degenerates (its cosine factor
    # vanishes), so the decay is governed by the other parameter
    assert min_bar(-0.5, -0.5) == 0.0
    assert min_bar(0.5, -0.5) == 0.5
    assert min_bar(-0.5, 0.2) == 0.2
    assert min_bar(-0.6, -0.5) == -0.6
    assert min_bar(0.3, 0.7) == 0.3
