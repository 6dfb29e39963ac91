import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from chebquad import moments, special
from chebquad.errors import NumericalFailure
from chebquad.moments import (
    UNIT_WEIGHT,
    WeightKind,
    WeightSpec,
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
    vals = moments_for(WeightSpec(WeightKind.JACOBI, 0.0, 0.0), 4).values
    assert np.allclose(vals, [2.0, 0.0, -2.0 / 3.0, 0.0, -2.0 / 15.0], atol=1e-14)


def test_chebyshev_weight_moments_are_orthogonality():
    # against (1-x^2)^(-1/2) every T_k with k >= 1 integrates to zero
    vals = moments_for(WeightSpec(WeightKind.JACOBI, -0.5, -0.5), 6).values
    assert vals[0] == pytest.approx(math.pi, rel=1e-14)
    assert np.max(np.abs(vals[1:])) < 1e-13 * math.pi


def test_log_weight_first_moments():
    # G_0 = integral of ln((x+1)/2) = -2; G_1 = integral of x ln((x+1)/2) = 1
    vals = moments_for(WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0), 1).values
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


def _two_evaluation_log_seeds(alpha, beta, beta_fn, psi):
    """The log-Jacobi seeds with phi(beta+1) evaluated separately for each seed."""
    scale = 2 ** (alpha + beta + 1)

    def phi(c):
        return beta_fn(alpha + 1, c) * (psi(alpha + c + 1) - psi(c))

    return -scale * phi(beta + 1), -scale * (2 * phi(beta + 2) - phi(beta + 1))


def _counted(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


@pytest.mark.parametrize("alpha, beta", [(0.775, -0.502), (-0.3, 0.2)])
@pytest.mark.parametrize("arithmetic", ["float64", "mpf"])
def test_log_seeds_evaluate_phi_once(alpha, beta, arithmetic):
    # G_0 and G_1 share phi(beta+1) = B(alpha+1, beta+1) [psi(alpha+beta+2) - psi(beta+1)]:
    # one Beta and two digammas for it, one and two more for phi(beta+2), and the
    # same bits as evaluating phi(beta+1) for each seed
    fns = (special.beta, special.digamma) if arithmetic == "float64" else (mp.beta, mp.digamma)
    with mp.workdps(30):
        a, b = (alpha, beta) if arithmetic == "float64" else (mp.mpf(alpha), mp.mpf(beta))
        betas, psis = [], []
        got = moments._seeds(a, b, True, _counted(fns[0], betas), _counted(fns[1], psis))
        want = _two_evaluation_log_seeds(a, b, *fns)
    assert (len(betas), len(psis)) == (2, 4)
    assert got == want
    assert all(type(g) is type(w) for g, w in zip(got, want))


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
    vals = moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), 40).values
    for k in K_SAMPLE:
        ref = oracles.chebyshev_jacobi_moment(alpha, beta, k)
        assert close_to_reference(vals[k], ref), (alpha, beta, k, vals[k], ref)


@pytest.mark.parametrize("alpha,beta", PAIR_SAMPLE)
def test_log_jacobi_moments_match_closed_form(alpha, beta):
    vals = moments_for(WeightSpec(WeightKind.LOGJACOBI, alpha, beta), 40).values
    for k in K_SAMPLE:
        ref = oracles.chebyshev_log_jacobi_moment(alpha, beta, k)
        assert close_to_reference(vals[k], ref), (alpha, beta, k, vals[k], ref)


def test_tables_near_the_float64_limit():
    # 2^1201 overflows float64 but M_0 = 0.0723 does not: the seeds come
    # from mpf, rounded once, and the float64 recurrence runs from them
    for kind, ref in (("jacobi", oracles.chebyshev_jacobi_moment),
                      ("logjacobi", oracles.chebyshev_log_jacobi_moment)):
        table = moments_for(WeightSpec(WeightKind(kind), 600.0, 600.0), 3)
        assert within_one_ulp(table.values, [ref(600.0, 600.0, k) for k in range(4)]), kind
    # finite seeds whose recurrence overflows at k = 2 (M_0 = 1.6e305 and
    # G_0 = -3.3e305 used to give inf and NaN tables; 1030's mpf M_0 is
    # 2.2e307), and 1100's M_0, which rounds to inf
    for kind, alpha in (("jacobi", 1022.9), ("logjacobi", 1021.0), ("jacobi", 1030.0),
                        ("jacobi", 1100.0)):
        with pytest.raises(NumericalFailure, match="overflow float64"):
            moments_for(WeightSpec(WeightKind(kind), alpha, 0.0), 3)


def test_moments_match_adaptive_quadrature():
    # a second, entirely different reference: direct tanh-sinh quadrature
    # of the integrand (safe here because k stays small)
    vals = moments_for(WeightSpec(WeightKind.JACOBI, 0.2, -0.3), 10).values
    for k in range(11):
        ref = oracles.quad_jacobi_moment(0.2, -0.3, k)
        assert vals[k] == pytest.approx(ref, rel=1e-10)
    gvals = moments_for(WeightSpec(WeightKind.LOGJACOBI, -0.3, 0.2), 6).values
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
    v = moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), K).values
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
    g = moments_for(WeightSpec(WeightKind.LOGJACOBI, alpha, beta), K).values
    m = moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), K + 1).values
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
    direct = moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), k).values[k]
    swapped = moments_for(WeightSpec(WeightKind.JACOBI, beta, alpha), k).values[k]
    scale = max(abs(direct), abs(swapped), 1.0)
    assert abs(direct - (-1.0) ** k * swapped) <= 1e-12 * scale


@pytest.mark.parametrize("alpha", [-0.6, -0.5, 0.0, 0.2, 0.5, 1.0])
def test_symmetric_weight_kills_odd_moments(alpha):
    vals = moments_for(WeightSpec(WeightKind.JACOBI, alpha, alpha), 41).values
    assert np.max(np.abs(vals[1::2])) <= 1e-13 * abs(vals[0])


# --- solver routing -----------------------------------------------------------


def test_unstable_pairs_take_the_extended_route():
    for kind, alpha, beta, method in (
        ("jacobi", 0.5, -0.5, "extended"),
        ("jacobi", -0.5, 0.5, "extended"),
        ("jacobi", 0.0, -0.45, "extended"),  # near-half buffer
        ("logjacobi", 0.0, -0.5, "extended"),
        ("jacobi", 0.2, -0.3, "forward"),
        ("jacobi", -0.5, -0.5, "forward"),  # equal: stable
    ):
        table = moments_for(WeightSpec(WeightKind(kind), alpha, beta), 40)
        assert table.method == method, (kind, alpha, beta)


def _two_branch_forward_unstable(alpha, beta):
    # the route predicate as two mirrored branches over a one-parameter test
    def near_half_odd_integer(x):
        nearest = round(x + 0.5) - 0.5
        return nearest >= -0.5 - 1e-12 and abs(x - nearest) <= moments.HALF_INTEGER_MARGIN

    return (alpha > beta and near_half_odd_integer(beta)) or (
        beta > alpha and near_half_odd_integer(alpha)
    )


# within 0.06 of a half-odd line (the margin's edges included), just below -1/2,
# or anywhere in the weight domain
route_params = st.one_of(
    st.builds(lambda line, offset: line + offset, st.sampled_from([-1.5, -0.5, 0.5, 1.5, 2.5]),
              st.one_of(st.floats(-0.06, 0.06), st.sampled_from([-0.05, 0.05]))),
    st.just(-0.5 - 1e-12),
    st.floats(min_value=-0.9999, max_value=700.0),
)


@given(alpha=route_params, beta=route_params, equal=st.booleans())
@example(alpha=0.5, beta=-0.5 - 1e-12, equal=False)
@example(alpha=-0.5 - 1e-12, beta=0.5, equal=False)
@example(alpha=-0.5 - 1e-12, beta=0.0, equal=True)
@example(alpha=-0.5, beta=0.0, equal=True)
@settings(max_examples=400, deadline=None)
def test_forward_unstable_is_the_two_branch_test(alpha, beta, equal):
    # one test on min(alpha, beta) decides the route exactly as the branch on
    # the smaller parameter of each ordering did, equal pairs included
    if equal:
        beta = alpha
    assert moments._forward_unstable(alpha, beta) == _two_branch_forward_unstable(alpha, beta)


def test_extended_route_reports_a_small_error():
    assert moments_for(WeightSpec(WeightKind.JACOBI, 0.5, -0.5), 40).est_rel_error < 1e-12
    assert moments_for(WeightSpec(WeightKind.LOGJACOBI, 0.0, -0.5), 40).est_rel_error < 1e-10


def test_forward_drift_in_the_unstable_class():
    # what the extended route buys: with beta = -1/2 the slowly-decaying
    # k^(-1) recurrence branch is absent from the true solution, so any
    # roundoff a float64 forward pass injects grows relatively like k^3.
    # By k = 4096 the naive float64 table has drifted visibly (4.8e-6)
    # while the extended table matches the closed form
    # M_K = (3 sqrt(2) / 2) / ((K^2 - 1/4)(K^2 - 9/4)).
    alpha, beta = 1.0, -0.5
    K = 4096
    good = moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), K).values
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


HALF_ODD = [-0.5, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


@st.composite
def extended_pairs(draw):
    """(smaller, other) on the extended route: the smaller at, 1e-8 from or
    within the margin of a half-odd line up to 11/2; the other up to 700,
    clear of the half-odd lines (see the test above)."""
    smaller = draw(st.sampled_from(HALF_ODD)) + draw(st.one_of(
        st.just(0.0), st.sampled_from([-1e-8, 1e-8]), st.floats(-0.049, 0.049)))
    other = draw(st.floats(smaller, 700.0).filter(
        lambda x: x > smaller and abs(x % 1.0 - 0.5) > 0.06))
    return smaller, other


@st.composite
def two_term_step_pairs(draw):
    """(smaller, other) with alpha + beta = N exactly, so step k = N + 2 has
    r = d: dyadic offsets within the margin keep N - smaller exact, and put
    the other parameter as close to a half-odd line as the smaller."""
    smaller = draw(st.sampled_from(HALF_ODD)) + draw(
        st.integers(-51, 51).filter(bool)) / 1024
    return smaller, draw(st.integers(math.floor(2 * smaller) + 1, 60)) - smaller


@given(
    kind=st.sampled_from(["jacobi", "logjacobi"]),
    pair=st.one_of(extended_pairs(), two_term_step_pairs()),
    K=st.sampled_from([64, 256, 1024, 4096]),
    mirrored=st.booleans(),
)
@example(kind="jacobi", pair=(-0.5, 0.5), K=64, mirrored=False)
# 20 guard digits round one entry of each of these two the other way
@example(kind="jacobi", pair=(3.5, 684.9274025460973), K=64, mirrored=False)
@example(kind="logjacobi", pair=(3.46626658152975, 591.5744859866887), K=64, mirrored=True)
@example(kind="logjacobi", pair=(1.5 - 3 / 1024, 2.5 + 3 / 1024), K=64, mirrored=True)
@settings(max_examples=30, deadline=None)
def test_guard_digits_give_the_table_of_40_more_digits(kind, pair, K, mirrored):
    alpha, beta = pair if mirrored else pair[::-1]
    log = kind == "logjacobi"
    digits = moments.GUARD_DIGITS + math.ceil(moments._growth(alpha, beta, K))
    # tables of hundreds of digits at K = 4096 take seconds each
    assume(digits <= 400)
    values, method, _ = moments._values(alpha, beta, K, log)
    assert method == "extended"
    with mp.workdps(digits + 40):
        ref = moments._table(mp.mpf(alpha), mp.mpf(beta), K, log, moments._mp_seeds)
    assert np.array_equal(values.view(np.int64), ref.view(np.int64))


@given(kind=st.sampled_from(["jacobi", "logjacobi"]), pair=extended_pairs(),
       mirrored=st.booleans())
@example(kind="jacobi", pair=(0.45, 300.3), mirrored=False)
@example(kind="jacobi", pair=(2.546, 377.19), mirrored=True)
@example(kind="logjacobi", pair=(25.545, 672.02), mirrored=True)
@example(kind="jacobi", pair=(-0.5, 6.0), mirrored=False)
@settings(max_examples=20, deadline=None)
def test_est_rel_error_bounds_the_table_error(kind, pair, mirrored):
    alpha, beta = pair if mirrored else pair[::-1]
    table = moments_for(WeightSpec(WeightKind(kind), alpha, beta), 40)
    assert table.method == "extended"
    moment = oracles.chebyshev_jacobi_moment if kind == "jacobi" else oracles.chebyshev_log_jacobi_moment
    # The closed form sums terms up to about 10^30 times M_0 into moments
    # down to 10^-31 times M_0 on this domain, more than 60 digits carry:
    # at jacobi:6:-0.5 its M_40 is 3 ulps off the recurrence at 200 digits.
    with mock.patch.object(oracles, "_DPS", 120):
        ref = np.array([moment(alpha, beta, k) for k in range(41)])
    # the reference is itself rounded once to float64
    assert np.all(np.abs(table.values - ref) <= (table.est_rel_error + 2.0**-53) * np.abs(ref))


@given(
    kind=st.sampled_from(["jacobi", "logjacobi"]),
    near=st.builds(lambda line, offset: line + offset, st.sampled_from(HALF_ODD),
                   st.one_of(st.just(0.0), st.floats(-0.05, 0.05))),
    other=st.floats(min_value=-0.9, max_value=60.0, exclude_min=True),
    mirrored=st.booleans(),
)
@example(kind="jacobi", near=0.5, other=-0.5 + 1e-8, mirrored=False)
@example(kind="logjacobi", near=1.478, other=2.062, mirrored=False)
@settings(max_examples=30, deadline=None)
def test_a_moment_does_not_depend_on_the_table_length(kind, near, other, mirrored):
    # cache bucketing must never change returned values: the table of
    # bucket 64 is the head of the tables of buckets 256 and 1024, bit for
    # bit.  Both parameters half-odd is the next test's case.
    alpha, beta = (near, other) if mirrored else (other, near)
    assume(not alpha % 1.0 == beta % 1.0 == 0.5)
    assume(moments.GUARD_DIGITS + math.ceil(moments._growth(alpha, beta, 1024)) <= 300)
    w = WeightSpec(WeightKind(kind), alpha, beta)
    short = moments_for(w, 64).values
    for K in (256, 1024):
        assert np.array_equal(short.view(np.int64), moments_for(w, K).values[:65].view(np.int64)), K


TAIL_LINES = [k + 0.5 for k in range(-1, 10)]  # -1/2 .. 19/2


@pytest.mark.parametrize("alpha, beta", [(a, b) for a in TAIL_LINES for b in TAIL_LINES if a != b])
def test_half_odd_jacobi_tables_end_in_exact_zeros(alpha, beta):
    # w = (1-x)^(alpha+1/2) (1+x)^(beta+1/2) / sqrt(1-x^2), a polynomial of
    # degree alpha+beta+1 over the Chebyshev weight: M_k = +0.0 from k =
    # alpha+beta+2 on, whatever the table's length
    w = WeightSpec(WeightKind.JACOBI, alpha, beta)
    for K in (64, 1024):
        assert not np.any(moments_for(w, K).values[round(alpha + beta) + 2:].view(np.int64)), K


# --- asymptotics ---------------------------------------------------------------


def test_moment_asymptotic_ratio_at_k200():
    w = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
    ratio = moments_for(w, 200).values[200] / moment_asymptotic(w, 200)
    assert 0.9 < ratio < 1.1
    wl = WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)
    ratio = moments_for(wl, 200).values[200] / moment_asymptotic(wl, 200)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("kind,alpha,beta", [
    ("jacobi", 0.5, 2.0), ("jacobi", 1.5, 3.0), ("logjacobi", 0.0, 3.0),
    ("logjacobi", -0.3, 1.5), ("logjacobi", 0.2, 0.5), ("logjacobi", 0.5, -0.5),
])
def test_moment_asymptotic_ratio_at_k2001(kind, alpha, beta):
    # the endpoint terms moment_asymptotic sums are the ones min_bar and
    # moment_decay_exponent read, silenced and ln 2k-free terms included
    w = WeightSpec(WeightKind(kind), alpha, beta)
    ratio = moments_for(w, 2001).values[2001] / moment_asymptotic(w, 2001)
    assert abs(ratio - 1.0) <= 2e-5


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
    # the same parameters give M_k for a Jacobi weight and G_k for a log-Jacobi one
    for kind, ref in (("jacobi", oracles.chebyshev_jacobi_moment),
                      ("logjacobi", oracles.chebyshev_log_jacobi_moment)):
        vals = moments_for(WeightSpec(WeightKind(kind), 0.2, -0.3), 20).values
        for k in range(21):
            assert close_to_reference(vals[k], ref(0.2, -0.3, k)), (kind, k)


def test_negative_zero_parameter_leaves_no_trace_in_the_cache():
    # -0.0 == 0.0 with one hash, so a table cached for jacobi:0:-0 used to
    # hand the unit weight its M_1 = -0.0
    moments._jacobi_values.cache_clear()
    negative = WeightSpec(WeightKind.JACOBI, 0.0, -0.0)
    assert math.copysign(1.0, negative.beta) == 1.0
    moments_for(negative, 2)
    assert np.float64(moments_for(UNIT_WEIGHT, 2).values[1]).view(np.int64) == 0


def test_moment_stores_are_bounded_in_entries(monkeypatch):
    # a table of bucket K holds K+1 entries: room here for three at K = 64
    store = moments._jacobi_values
    store.cache_clear()
    monkeypatch.setattr(store, "max_size", 3 * 65)
    weights = [WeightSpec(WeightKind.JACOBI, 0.1 * i, 0.2) for i in range(4)]
    for weight in weights:
        moments_for(weight, 40)
        assert store.cache_info().currsize <= store.max_size
    info = store.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 3 * 65)
    moments_for(weights[0], 40)  # the oldest table was dropped: built again
    assert store.cache_info().misses == info.misses + 1
    # a table larger than the whole bound is returned but not kept
    big = moments_for(weights[1], 1000)
    assert len(big.values) == 1001 and store.cache_info().currsize <= store.max_size
    assert np.array_equal(moments_for(weights[1], 1000).values, big.values)
    assert store.cache_info().misses == info.misses + 3
    store.cache_clear()


def test_moment_table_validation():
    with pytest.raises(ValueError):
        moments_for(WeightSpec(WeightKind.JACOBI, 0.0, 0.0), -1)
    with pytest.raises(ValueError):
        moments_for(WeightSpec(WeightKind.JACOBI, -1.5, 0.0), 4)
    with pytest.raises(TypeError):  # 2.7 used to give the K = 2 table
        moments_for(WeightSpec(WeightKind.JACOBI, 0.0, 0.0), 2.7)
    with pytest.raises(TypeError):
        moments_for(WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0), 4.0)
    assert moments_for(WeightSpec(WeightKind.JACOBI, 0.0, 0.0), np.int64(3)).K == 3
    # the weight is checked before any recurrence runs or any table is cached
    before = moments._jacobi_values.cache_info()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            moments_for(WeightSpec(WeightKind.JACOBI, bad, 0.0), 4)
        with pytest.raises(ValueError, match="finite"):
            moments_for(WeightSpec(WeightKind.LOGJACOBI, 0.0, bad), 4)
    assert moments._jacobi_values.cache_info() == before
    # a seed or moment beyond float64 used to escape as OverflowError or,
    # as a product of two finite factors (1022, -0.99), as an inf/NaN table;
    # on the extended route an mpf beyond float64 would round silently to inf
    for kind, alpha, beta, K in (("jacobi", 1030.0, 0.0, 3), ("jacobi", 1022.0, -0.99, 3),
                                 ("jacobi", 1100.0, 0.5, 4)):
        with pytest.raises(NumericalFailure, match=f"alpha={alpha}, beta={beta}"):
            moments_for(WeightSpec(WeightKind(kind), alpha, beta), K)
    # M_0 = 3.1188914686080845e+27 is finite; only the old asymptotic
    # boundary, Gamma(202), overflowed
    table = moments_for(WeightSpec(WeightKind.JACOBI, 100.0, 0.5), 4)
    assert table.values[0] == 3.1188914686080845e27
    for kind, ref in (("jacobi", oracles.chebyshev_jacobi_moment),
                      ("logjacobi", oracles.chebyshev_log_jacobi_moment)):
        table = moments_for(WeightSpec(WeightKind(kind), 100.0, 0.5), 4)
        assert within_one_ulp(table.values, [ref(100.0, 0.5, k) for k in range(5)]), kind


def test_min_bar_half_integer_convention():
    # a half-odd exponent silences its endpoint to every order (its cosine
    # factor vanishes), so the decay is governed by the other parameter;
    # with both half-odd the moments end at a finite k (placeholder 0.0)
    assert min_bar(-0.5, -0.5) == 0.0
    assert min_bar(0.5, -0.5) == 0.0  # sqrt((1-x)/(1+x)): M_k = 0 for k >= 2
    assert min_bar(2.5, -0.5) == 0.0
    assert min_bar(-0.5, 0.2) == 0.2
    assert min_bar(0.5, 2.0) == 2.0
    assert min_bar(1.5, 3.0) == 3.0
    assert min_bar(-0.6, -0.5) == -0.6
    assert min_bar(0.3, 0.7) == 0.3
