import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from chebquad import analysis, rules
from chebquad.analysis import (
    _strict_peaks,
    abspow,
    convergence_study,
    custom,
    envelope_slope,
    fit_slope,
    gauss_open_problem_study,
    moment_decay_exponent,
    oracle_integral,
    powplus,
    theoretical_rate,
    weight_sum_study,
)
from chebquad.chebcore import Family
from chebquad.errors import NumericalFailure
from chebquad.moments import WeightKind, WeightSpec, min_bar

UNIT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)
CHEB = WeightSpec(WeightKind.JACOBI, -0.5, -0.5)
LOG = WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)


# --- reference oracle ---------------------------------------------------------


def test_oracle_constant_integrands():
    one = custom(lambda x: np.ones_like(x))
    assert oracle_integral(UNIT, one)[0] == pytest.approx(2.0, abs=1e-13)
    assert oracle_integral(CHEB, one)[0] == pytest.approx(math.pi, abs=1e-12)
    assert oracle_integral(LOG, one)[0] == pytest.approx(-2.0, abs=1e-13)


def test_oracle_kink_closed_form():
    # integral of |x-1/2|^1.5 over [-1,1] splits into two monomial pieces
    expected = (1.5**2.5 + 0.5**2.5) / 2.5
    assert oracle_integral(UNIT, abspow(0.5, 1.5))[0] == pytest.approx(
        expected, rel=1e-13
    )


def test_oracle_one_sided_closed_form():
    # (x - 0.3)_+^1.7 integrates to 0.7^2.7 / 2.7
    expected = 0.7**2.7 / 2.7
    assert oracle_integral(UNIT, powplus(0.3, 1.7))[0] == pytest.approx(
        expected, rel=1e-13
    )


KINKS = {"abspow": abspow, "powplus": powplus}


@pytest.mark.parametrize(
    "weight, f, expected",
    [
        # the double-exponential route gave 15.77641028816217 and aborted
        (("jacobi", -0.766, 1.527), ("abspow", -0.572, 1.059), 15.776410288967666),
        # it aborted here too
        (("jacobi", -0.835, -0.843), ("powplus", 0.486, 0.911), 1.4575197921648984),
        # it handed out -25.906729236430802 and -2.607434593370166 (4e-12 off)
        (("logjacobi", 0.64, -0.712), ("abspow", 0.61, 0.375), -25.906729236543015),
        (("logjacobi", 0.196, -0.719), ("abspow", -0.85, 1.05), -2.60743459338053),
        # and 0.5342817535298056, one ulp low
        (("jacobi", -0.6, -0.5), ("powplus", 0.3, 1.7), 0.5342817535298057),
    ],
)
def test_oracle_pinned_kink_cells(weight, f, expected):
    assert oracles.kink_integral(*weight, *f) == expected
    assert oracle_integral(WeightSpec(*weight), KINKS[f[0]](*f[1:]))[0] == expected


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["jacobi", "logjacobi"]),
    f_kind=st.sampled_from(sorted(KINKS)),
    alpha=st.floats(min_value=-0.999, max_value=50.0, exclude_min=True),
    beta=st.floats(min_value=-0.999, max_value=50.0, exclude_min=True),
    c=st.floats(min_value=-0.95, max_value=0.95, exclude_min=True, exclude_max=True),
    s=st.floats(min_value=0.05, max_value=3.5, exclude_min=True, exclude_max=True),
)
# values near 1e-60 and 1e-66, where the reference's quadrature once stopped on
# its absolute error target: it returned 1.094886527524876e-60 for the first
@example(kind="jacobi", f_kind="powplus", alpha=41.0, beta=0.0, c=0.9375, s=3.0)
@example(kind="logjacobi", f_kind="powplus", alpha=50.0, beta=-0.99, c=0.94, s=0.06)
def test_oracle_kink_values_are_correctly_rounded(kind, f_kind, alpha, beta, c, s):
    # the whole domain, exponents near -1 and large ones alike, with no float64 warning
    assume(f_kind == "powplus" or s % 2 != 0)
    expected = oracles.kink_integral(kind, alpha, beta, f_kind, c, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = oracle_integral(WeightSpec(kind, alpha, beta), KINKS[f_kind](c, s))[0]
    assert value == expected


@pytest.mark.parametrize(
    "weight",
    [
        WeightSpec(WeightKind.JACOBI, -0.3, 0.2),
        WeightSpec(WeightKind.JACOBI, -0.6, -0.5),
        WeightSpec(WeightKind.LOGJACOBI, -0.6, -0.5),
    ],
)
def test_oracle_error_estimate_is_tight(weight):
    value, est = oracle_integral(weight, abspow(0.5, 0.6))
    assert est <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("kind", ["jacobi", "logjacobi"])
@pytest.mark.parametrize("f_kind, c, s", [("abspow", 0.5, 1.6), ("powplus", 0.3, 0.6)])
def test_oracle_reaches_exponent_minus_0_95(kind, f_kind, c, s):
    # the graded panels used to halve z down to 0 here and stop on math.log(0)
    for alpha, beta in ((0.0, -0.95), (-0.95, 0.0)):
        value, est = oracle_integral(WeightSpec(kind, alpha, beta), KINKS[f_kind](c, s))
        assert value == oracles.kink_integral(kind, alpha, beta, f_kind, c, s)
        assert est <= 1e-12 * max(1.0, abs(value))


def test_oracle_refuses_exponents_near_minus_one():
    # it does not: -0.99 lies inside the closed form's domain alpha, beta > -1, so
    # the value is returned with the bound on rounding it once as its estimate
    value, est = oracle_integral(WeightSpec(WeightKind.JACOBI, 0.0, -0.99), abspow(0.5, 1.6))
    assert value == oracles.kink_integral("jacobi", 0.0, -0.99, "abspow", 0.5, 1.6)
    assert est == 2.0**-53 * abs(value)


# Custom integrands T_k against the 60-digit moments: the sampling term bounds
# what evaluating T_k in float64 moves the integral.
@pytest.mark.parametrize("kind, alpha, beta, k", [
    ("jacobi", -0.99, 0.0, 8),
    ("jacobi", 0.3, -0.999, 3),
    ("logjacobi", 1.5, -0.99, 5),
    ("jacobi", 7.5, -0.4, 2),
    ("logjacobi", -0.999, 12.0, 8),
    ("logjacobi", -0.5, 0.2, 1),
])
def test_oracle_custom_route_matches_the_moments(kind, alpha, beta, k):
    moment = (oracles.chebyshev_log_jacobi_moment if kind == "logjacobi"
              else oracles.chebyshev_jacobi_moment)
    value, est = oracle_integral(WeightSpec(kind, alpha, beta),
                                 custom(lambda x: np.cos(k * np.arccos(x))))
    sampling = 2.0**-52 * abs(moment(alpha, beta, 0))
    assert abs(value - moment(alpha, beta, k)) <= est + sampling


def test_oracle_refuses_an_unresolved_custom_integrand():
    # the quadrature's estimate for cos(20000 x) is 0.22, its actual error 4.9e-3
    with pytest.raises(NumericalFailure, match="double-exponential"):
        oracle_integral(UNIT, custom(lambda x: np.cos(20000.0 * x)))
    value, est = oracle_integral(UNIT, custom(lambda x: np.cos(200.0 * x)))
    assert abs(value - 2.0 * math.sin(200.0) / 200.0) <= est <= 1e-11


@pytest.mark.parametrize("f", [abspow(0.5, 1.6), custom(np.cos)])
def test_oracle_refuses_a_value_beyond_float64(f):
    with pytest.raises(NumericalFailure, match="value inf"):
        oracle_integral(WeightSpec(WeightKind.JACOBI, 1100.0, 0.0), f)


def test_oracle_rejects_a_non_finite_custom_integrand():
    with pytest.raises(ValueError, match="non-finite"):
        oracle_integral(UNIT, custom(lambda x: np.where(x > 0.5, np.nan, x)))


def test_calling_a_scalar_only_custom_function_samples_it_per_point():
    f = custom(math.exp)
    x = np.array([-0.7, 0.1, 0.2, 1.0])
    got = f(x)
    assert got.shape == x.shape
    assert got.tolist() == [math.exp(p) for p in x.tolist()]
    one = f(0.1)
    assert np.ndim(one) == 0 and one == math.exp(0.1)
    assert np.array_equal(custom(np.exp)(x), np.exp(x))
    assert custom(np.exp)(0.1) == np.exp(0.1)
    with pytest.raises(ValueError, match="non-finite"):
        custom(lambda t: math.log(t) if t else math.inf)(np.array([0.5, 0.0]))


def test_a_non_finite_custom_value_is_not_retried_point_by_point():
    rule = rules.rule_for(Family.FEJER1, 1000, UNIT)
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.full(len(x), np.nan)  # takes arrays only

    with pytest.raises(ValueError, match="non-finite"):
        rules.apply(rule, custom(f))
    assert calls == [(1000,)]


def test_test_function_validation():
    with pytest.raises(ValueError):
        abspow(1.5, 0.6)  # kink outside the open interval
    with pytest.raises(ValueError):
        abspow(0.3, -0.2)
    with pytest.raises(ValueError):
        abspow(0.3, 2.0)  # even integer: not actually singular
    for bad in (math.nan, math.inf, -math.inf):  # used to pass for s
        with pytest.raises(ValueError, match="finite"):
            abspow(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            powplus(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            abspow(bad, 0.6)


# --- rate table -----------------------------------------------------------------


def test_theoretical_rates():
    s = 1.6
    # Chebyshev rules, benign Jacobi weight: kink-limited n^(-s-1)
    assert theoretical_rate(Family.FEJER1, WeightSpec(WeightKind.JACOBI, -0.3, 0.2), s) == (-s - 1.0, False)
    # strong endpoint singularity throttles the rate
    assert theoretical_rate(Family.CLENSHAW_CURTIS, WeightSpec(WeightKind.JACOBI, -0.6, -0.5), s) == (-s - 0.8, False)
    # log weight: benign beta behaves like Jacobi ...
    assert theoretical_rate(Family.FEJER2, WeightSpec(WeightKind.LOGJACOBI, -0.3, 0.2), s) == (-s - 1.0, False)
    # ... while beta <= -1/2 picks up the ln n factor
    assert theoretical_rate(Family.FEJER2, WeightSpec(WeightKind.LOGJACOBI, -0.6, -0.5), s) == (-s - 1.0, True)
    # Gauss-Legendre, unit weight: doubled rate below s = 1
    assert theoretical_rate(Family.GAUSS_LEGENDRE, UNIT, 0.4) == (-0.8, False)
    assert theoretical_rate(Family.GAUSS_LEGENDRE, UNIT, 1.0) == (-2.0, True)
    assert theoretical_rate(Family.GAUSS_LEGENDRE, UNIT, 2.82) == (-3.82, False)


def test_theoretical_rate_validation():
    with pytest.raises(ValueError):
        theoretical_rate(Family.GAUSS_LEGENDRE, WeightSpec(WeightKind.JACOBI, 0.2, 0.0), 1.5)
    for s in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            theoretical_rate(Family.FEJER1, UNIT, s)


# --- slope fitting ----------------------------------------------------------------


def test_fit_slope_exact_power_law():
    ns = np.arange(100, 1001)
    slope, r2 = fit_slope(ns, 3.7 * ns**-2.0, (100, 1000))
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_with_modulation():
    ns = np.arange(100, 1001)
    errs = 5.0 * ns**-2.0 * (1.0 + 0.1 * np.sin(ns))
    slope, _ = fit_slope(ns, errs, (100, 1000))
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_fit_slope_ignores_exact_zeros():
    ns = np.arange(100, 1001)
    errs = 3.7 * ns**-2.0
    errs[::7] = 0.0  # exact hits must not poison the log fit
    slope, _ = fit_slope(ns, errs, (100, 1000))
    assert slope == pytest.approx(-2.0, abs=1e-12)


def test_fit_slope_needs_five_points():
    with pytest.raises(ValueError):
        fit_slope([100, 200, 300, 400], [1e-3, 1e-4, 1e-5, 1e-6], (100, 400))
    with pytest.raises(ValueError):
        fit_slope([100, 200], [1e-3, 1e-4], (100, 200))


def test_fit_slope_rejects_degenerate_data():
    ns = np.arange(100, 120)
    with pytest.raises(ValueError):
        fit_slope(ns, np.full(20, 0.5), (100, 119))  # no spread in error
    with pytest.raises(ValueError):
        fit_slope(ns, np.zeros(20), (100, 119))  # nothing usable


def test_envelope_slope_recovers_the_envelope():
    # oscillation under a clean n^(-1.5) envelope: a straight fit sees the
    # wiggle (poor r^2), the peak fit reads off the envelope exponent
    ns = np.arange(100, 1001)
    errs = ns**-1.5 * (0.05 + np.abs(np.sin(0.4 * ns)))
    slope, r2 = envelope_slope(ns, errs, (100, 1000))
    assert slope == pytest.approx(-1.5, abs=0.02)
    assert r2 > 0.999
    _, r2_ols = fit_slope(ns, errs, (100, 1000))
    assert r2_ols < 0.7


def test_envelope_slope_needs_peaks():
    ns = np.arange(100, 151)
    with pytest.raises(ValueError):
        envelope_slope(ns, 2.0 * ns**-1.0, (100, 150))  # monotone: no interior maxima


def test_strict_peaks_match_argrelmax():
    from scipy.signal import argrelmax  # reference only; the package does not import it

    rng = np.random.default_rng(20130822)
    for length in range(40):
        for _ in range(50):
            y = rng.integers(0, 4, length).astype(float)  # small range: many ties
            np.testing.assert_array_equal(_strict_peaks(y), argrelmax(y, order=2)[0])
    plateaus = np.array([0.0, 1, 3, 3, 1, 0, 2, 5, 2, 0, 0, 4, 4, 4, 1, 0])
    assert list(_strict_peaks(plateaus)) == list(argrelmax(plateaus, order=2)[0]) == [7]


# --- convergence studies -------------------------------------------------------------


def test_convergence_study_smoke():
    report = convergence_study(
        Family.FEJER1,
        WeightSpec(WeightKind.JACOBI, -0.3, 0.2),
        abspow(0.5, 1.6),
        range(100, 301),
    )
    assert report.theoretical_slope == pytest.approx(-2.6)
    assert not report.log_factor
    assert report.passed
    assert len(report.abs_errors) == len(report.ns) == 201
    assert report.fit_window == (100, 300)
    assert all(e >= 0.0 for e in report.abs_errors)
    assert report.oracle_error <= 1e-12 * max(1.0, abs(report.reference))


def test_convergence_study_validation():
    f = abspow(0.5, 1.6)
    with pytest.raises(ValueError):
        convergence_study(Family.FEJER1, UNIT, f, [100, 100, 200])
    with pytest.raises(ValueError):
        convergence_study(Family.FEJER1, UNIT, f, [5, 50, 100, 200, 400])
    with pytest.raises(ValueError):
        convergence_study(Family.FEJER1, UNIT, f, [100, 200, 6000])
    with pytest.raises(ValueError):
        convergence_study(Family.FEJER1, UNIT, custom(np.exp), range(100, 301))
    with pytest.raises(ValueError):
        convergence_study(Family.FEJER1, UNIT, f, range(100, 301), fit="magic")
    with pytest.raises(TypeError):  # n = 100.5 used to run as n = 100
        convergence_study(Family.FEJER1, UNIT, f, [100.5, 150, 200, 250, 300])
    for tolerance in (math.nan, -1.0, math.inf):  # nan, -1 failed every fit, inf passed it
        with pytest.raises(ValueError, match="tolerance"):
            convergence_study(Family.FEJER1, UNIT, f, range(100, 301),
                              slope_tolerance=tolerance)


def test_describe_keeps_every_digit():
    assert abspow(0.5, 1.6).describe() == "|x-0.5|^1.6"
    assert abspow(0.123456789, 0.6).describe() == "|x-0.123456789|^0.6"  # was 0.123457
    assert powplus(-0.25, 1e-07).describe() == "(x--0.25)_+^1e-07"


def test_gauss_sweeps_build_each_rule_once():
    # criterion 6's three exponents over n = 10..500 ask for the same rules
    rules._gauss_legendre_cached.cache_clear()
    for s in (0.4, 1.45, 2.82):
        report = convergence_study(Family.GAUSS_LEGENDRE, UNIT, abspow(0.3, s),
                                   range(10, 501))
        assert len(report.abs_errors) == 491
    info = rules._gauss_legendre_cached.cache_info()
    assert (info.misses, info.hits) == (491, 2 * 491)


def test_weight_sum_study_gauss_is_flat():
    rows = weight_sum_study(Family.GAUSS_LEGENDRE, UNIT, [10, 40, 160])
    for n, total, dev in rows:
        assert total == pytest.approx(2.0, abs=1e-13)
        assert abs(dev) <= 1e-13
    assert [n for n, _, _ in rows] == [10, 40, 160]
    with pytest.raises(TypeError):  # 10.7 used to give the row of n = 10
        weight_sum_study(Family.CLENSHAW_CURTIS, UNIT, [10.7])


def test_gauss_studies_reject_non_unit_weights(monkeypatch):
    weight = WeightSpec(WeightKind.JACOBI, 0.5, 0.5)
    with pytest.raises(ValueError):
        weight_sum_study(Family.GAUSS_LEGENDRE, weight, [10])

    def no_oracle(*args):
        raise AssertionError("the oracle ran for a rejected weight")

    monkeypatch.setattr(analysis, "_oracle", no_oracle)
    with pytest.raises(ValueError):
        convergence_study(Family.GAUSS_LEGENDRE, weight, abspow(0.3, 0.4), range(10, 20))


def test_moment_decay_exponents():
    fitted, theo, r2 = moment_decay_exponent(WeightSpec(WeightKind.JACOBI, 0.2, -0.3))
    assert theo == pytest.approx(-1.4)
    assert fitted == pytest.approx(theo, abs=0.05)
    assert r2 > 0.999
    fitted, theo, r2 = moment_decay_exponent(LOG)
    assert theo == pytest.approx(-2.0)
    assert fitted == pytest.approx(theo, abs=0.05)


# (kind, alpha, beta, theoretical exponent): the slowest live endpoint term,
# with ln 2k divided out only where that term carries it
LIVE_DECAYS = [
    ("jacobi", 0.5, 2.0, -6.0),  # alpha = 1/2 silences x = 1
    ("jacobi", 1.5, 3.0, -8.0),
    ("logjacobi", 0.0, 3.0, -4.0),  # the x = 1 term, exponent alpha + 1, is slower
    ("logjacobi", -0.3, 1.5, -3.4),
    ("logjacobi", 0.2, 0.5, -3.0),  # no ln 2k: cos(pi/2) = 0
    ("logjacobi", 0.5, -0.5, -1.0),
]


@pytest.mark.parametrize("kind,alpha,beta,theory", LIVE_DECAYS)
def test_moment_decay_theory_from_the_endpoint_terms(kind, alpha, beta, theory):
    fitted, theo, _ = moment_decay_exponent(WeightSpec(WeightKind(kind), alpha, beta))
    assert theo == pytest.approx(theory, abs=1e-12)
    assert abs(fitted - theo) <= 0.05


@pytest.mark.parametrize("alpha,beta", [(2.5, -0.5), (0.5, 2.5)])
def test_moment_decay_of_terminating_moments_raises(alpha, beta):
    # both exponents half-odd: M_k = 0 beyond a finite k, nothing to fit
    with pytest.raises(ValueError):
        moment_decay_exponent(WeightSpec(WeightKind.JACOBI, alpha, beta))


def test_moment_decay_theory_where_gamma_overflows():
    # Gamma(2*100 + 2) overflows float64; the exponent must not need it
    _, theo, _ = moment_decay_exponent(WeightSpec(WeightKind.JACOBI, 100.0, 0.3))
    assert theo == pytest.approx(-2.6, abs=1e-12)
    assert min_bar(100.0, 0.3) == 0.3


def test_moment_decay_validation():
    with pytest.raises(ValueError):
        moment_decay_exponent(UNIT, k_lo=64, k_hi=32)


def test_open_problem_columns_equal_per_n_fsum_bit_for_bit(monkeypatch):
    import scipy.special

    # 150 points: small rules share chunks across their boundaries, and each
    # n > 150 is a chunk of its own
    monkeypatch.setattr(rules, "_CHUNK_POINTS", 150)
    weight, f, ns = WeightSpec(WeightKind.JACOBI, 0.2, -0.3), abspow(0.4, 1.45), range(10, 200, 7)
    report = gauss_open_problem_study(weight, f, ns)

    def errors(products):
        return tuple(abs(report.reference - math.fsum(p.tolist())) for p in products)

    gj = (w * f(x) for x, w in (scipy.special.roots_jacobi(n, 0.2, -0.3) for n in ns))
    gl = (r.weights * weight(r.nodes) * f(r.nodes)
          for r in rules.rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    cc = (r.weights * f(r.nodes) for r in rules.rules_for(Family.CLENSHAW_CURTIS, ns, weight))
    assert report.gauss_jacobi_errors == errors(gj)
    assert report.gauss_legendre_errors == errors(gl)
    assert report.clenshaw_curtis_errors == errors(cc)


def test_open_problem_study_reports_without_verdict():
    report = gauss_open_problem_study(
        WeightSpec(WeightKind.JACOBI, 0.2, -0.3),
        abspow(0.4, 1.45),
        range(100, 251, 10),
    )
    assert set(report.slopes) == {"gauss-jacobi", "gauss-legendre", "clenshaw-curtis"}
    assert report.chebyshev_rate == pytest.approx(-2.45)
    assert len(report.gauss_jacobi_errors) == len(report.ns)
    assert not hasattr(report, "passed")  # informational: no pass/fail field
    with pytest.raises(ValueError):
        gauss_open_problem_study(LOG, abspow(0.4, 1.45), range(100, 251, 10))
    for ns in ([], [100, 90], [5, 50, 100]):  # [] ended in an IndexError
        with pytest.raises(ValueError):
            gauss_open_problem_study(report.weight, report.test, ns)
