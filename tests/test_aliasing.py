import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebquad import aliasing
from chebquad.aliasing import ReducedForm, alias_errors, alias_reduce, error_series_check
from chebquad.analysis import abspow, reference_integral
from chebquad.chebcore import CHEBYSHEV_FAMILIES, Family, cheb_expansion_coeffs, chebyshev_T
from chebquad.moments import WeightKind, WeightSpec, jacobi_moments, moments_for
from chebquad.rules import apply, gauss_legendre, rule_for

UNIT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)
JAC = WeightSpec(WeightKind.JACOBI, -0.3, 0.2)
LOG = WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)


def _period(family: Family, n: int) -> int:
    if family is Family.FEJER1:
        return n
    if family is Family.FEJER2:
        return n + 1
    if family is Family.GAUSS_LEGENDRE:
        return 2 * n + 1
    return n - 1


# --- degree reduction ---------------------------------------------------------


def test_reduce_worked_examples():
    # T_10 on the 5-point Clenshaw-Curtis grid folds once (period 8) to T_2
    assert alias_reduce(Family.CLENSHAW_CURTIS, 5, 10) == (1, 2, 1)
    # T_8 on the 4-point Fejer-1 grid lands on T_0 with the odd-fold sign
    assert alias_reduce(Family.FEJER1, 4, 8) == (1, 0, -1)
    # Fejer-2 boundary reduction: T_27 on 8 points folds to index n+1 = 9
    assert alias_reduce(Family.FEJER2, 8, 27) == (1, 9, 1)
    # degrees below the period are identities
    assert alias_reduce(Family.FEJER1, 7, 5) == (0, 5, 1)


def test_reduce_validation():
    # n = 0 raised ZeroDivisionError, n = -1 gave (-3, -1, -1.0) and
    # n = 2.5 gave (1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        alias_reduce(Family.FEJER1, 0, 5)
    with pytest.raises(ValueError):
        alias_reduce(Family.FEJER1, -1, 5)
    with pytest.raises(TypeError):
        alias_reduce(Family.FEJER1, 2.5, 5)
    with pytest.raises(TypeError):
        alias_reduce(Family.FEJER2, 4, 5.0)
    with pytest.raises(ValueError):
        alias_reduce(Family.FEJER2, 4, -1)
    with pytest.raises(ValueError):
        alias_reduce(Family.CLENSHAW_CURTIS, 1, 5)
    with pytest.raises(ValueError):
        alias_reduce(Family.GAUSS_LEGENDRE, 4, 5)
    assert alias_reduce(Family.FEJER1, np.int64(4), np.int64(8)) == (1, 0, -1)
    with pytest.raises(TypeError):  # gave a GAUSS_PLAIN record with p = j = 1.0
        alias_errors(Family.GAUSS_LEGENDRE, 8, (40.5,), UNIT)[0]
    with pytest.raises(TypeError):
        alias_errors(Family.GAUSS_LEGENDRE, 8.0, (40,), UNIT)[0]
    assert (alias_errors(Family.GAUSS_LEGENDRE, np.int64(8), (np.int64(40),), UNIT)[0]
            == alias_errors(Family.GAUSS_LEGENDRE, 8, (40,), UNIT)[0])


@given(
    family=st.sampled_from(CHEBYSHEV_FAMILIES),
    n=st.integers(min_value=2, max_value=40),
    m=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=120, deadline=None)
def test_reduce_reconstructs_the_degree(family, n, m):
    p, j, sign = alias_reduce(family, n, m)
    K = _period(family, n)
    assert p >= 0 and 0 <= j <= K
    assert 2 * K * p + j == m or 2 * K * p - j == m
    assert sign == ((-1) ** p if family is Family.FEJER1 else 1)


@given(
    family=st.sampled_from(CHEBYSHEV_FAMILIES),
    n=st.integers(min_value=2, max_value=25),
    m=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_node_values(family, n, m):
    # the whole point of the reduction: T_m and sign*T_j agree at the nodes
    from chebquad.chebcore import make_points

    p, j, sign = alias_reduce(family, n, m)
    pts = make_points(family, n)
    assert np.max(np.abs(chebyshev_T(m, pts) - sign * chebyshev_T(j, pts))) < 1e-11


# --- exact identities on the Chebyshev-point rules ------------------------------


@pytest.mark.parametrize("weight", [UNIT, JAC, LOG], ids=["unit", "jacobi", "log"])
@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_alias_identities_small(family, weight, n=9):
    for p in range(3):
        for j in range(n):
            for m in {2 * _period(family, n) * p + j,
                      abs(2 * _period(family, n) * p - j)}:
                rec = alias_errors(family, n, (m,), weight)[0]
                assert rec.residual <= 1e-11, (family, weight, m)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_alias_errors_build_their_rule_once(family, interp_rules_calls):
    weight = WeightSpec(WeightKind.LOGJACOBI, 0.775, -0.502)  # extended moment route
    table = alias_errors(family, 11, range(50), weight)
    assert interp_rules_calls == [[11]]
    assert table == [alias_errors(family, 11, (m,), weight)[0] for m in range(50)]
    assert interp_rules_calls == [[11]] * 51
    assert max(rec.residual for rec in table) <= 1e-11


def test_fejer1_zero_identity():
    # odd multiples of n alias onto T_n, which vanishes at the Fejer-1
    # nodes, so the rule returns 0 and the error is the bare moment
    rec = alias_errors(Family.FEJER1, 6, (18,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.FEJER1_ZERO
    assert rec.residual <= 1e-12
    m18 = jacobi_moments(0.0, 0.0, 18).values[18]
    assert rec.computed == pytest.approx(m18, abs=1e-13)
    rule = rule_for(Family.FEJER1, 6, UNIT)
    assert abs(apply(rule, lambda x: chebyshev_T(18, x))) <= 1e-13


def test_fejer1_error_combines_two_moments():
    # degree 35 on 16 points folds to T_3 with a sign flip:
    # E[T_35] = M_35 + M_3
    rec = alias_errors(Family.FEJER1, 16, (35,), UNIT)[0]
    vals = jacobi_moments(0.0, 0.0, 35).values
    assert rec.computed == pytest.approx(vals[35] + vals[3], abs=1e-12)
    assert rec.residual <= 1e-12


def test_fejer2_boundary_forms():
    rec = alias_errors(Family.FEJER2, 8, (27,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.FEJER2_EDGE_N1
    assert rec.residual <= 1e-11
    rec = alias_errors(Family.FEJER2, 8, (26,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.FEJER2_EDGE_N
    assert rec.residual <= 1e-11


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_alias_identities_survive_large_degrees(family):
    # identities are exact for every m; check degrees up to 50n where the
    # trigonometric evaluation of T_m is the only hazard
    weight = WeightSpec(WeightKind.JACOBI, -0.6, -0.5)
    n = 16
    for m in np.unique(np.geomspace(n, 50 * n, 15).astype(int)):
        rec = alias_errors(family, n, (int(m),), weight)[0]
        assert rec.residual <= 1e-11, (family, m)


# --- one node-sum path, bit for bit ---------------------------------------------


def _reference_node_sum(rule, m):
    """The rule's value of T_m as a math.fsum of chebyshev_T node values."""
    return math.fsum((rule.weights * chebyshev_T(m, rule.nodes)).tolist())


def _bits(x):
    return float(x).hex()  # tells -0.0 from 0.0


@pytest.mark.parametrize("weight", [JAC, LOG], ids=["jacobi", "log"])
def test_alias_errors_equal_fsum_of_chebyshev_T_bit_for_bit(weight):
    forms = set()
    for family in (*CHEBYSHEV_FAMILIES, Family.GAUSS_LEGENDRE):
        w = UNIT if family is Family.GAUSS_LEGENDRE else weight
        for n in (1, 2, 3, 8, 41, 100):
            if family is Family.CLENSHAW_CURTIS and n == 1:
                continue
            rule = rule_for(family, n, w)
            for rec in alias_errors(family, n, range(3 * n + 3), w):
                m = rec.m
                if family is Family.GAUSS_LEGENDRE:
                    exact = 0.0 if m % 2 else 2.0 / (1.0 - m * m)
                else:
                    exact = moments_for(w, m).values[m]
                assert _bits(rec.computed) == _bits(exact - _reference_node_sum(rule, m)), \
                    (family, n, m)
                if rec.reduced_form in (ReducedForm.FEJER2_EDGE_N, ReducedForm.FEJER2_EDGE_N1):
                    edge = rec.sign * _reference_node_sum(rule, rec.j)
                    assert _bits(rec.predicted) == _bits(exact - edge), (n, m)
                forms.add(rec.reduced_form)
    assert forms == set(ReducedForm)


def test_alias_errors_check_every_degree_before_any_node_sum(monkeypatch):
    sums = []
    monkeypatch.setattr(aliasing, "_rule_values", lambda rule, degrees: sums.append(1))
    for family in (*CHEBYSHEV_FAMILIES, Family.GAUSS_LEGENDRE):
        weight = UNIT if family is Family.GAUSS_LEGENDRE else JAC
        with pytest.raises(ValueError, match="nonnegative"):
            alias_errors(family, 8, [3, -1], weight)
        with pytest.raises(TypeError):
            alias_errors(family, 8, [3, 2.5], weight)
    assert sums == []


@pytest.mark.parametrize("family, n, weight, truncation", [
    (Family.CLENSHAW_CURTIS, 12, UNIT, 60),
    (Family.FEJER2, 9, JAC, 45),
    (Family.GAUSS_LEGENDRE, 6, UNIT, 50),
])
def test_error_series_terms_are_the_alias_table_values(family, n, weight, truncation):
    f = abspow(0.3, 2.82)
    start = 2 * n if family is Family.GAUSS_LEGENDRE else n
    terms = [rec.computed for rec in alias_errors(family, n, range(start, truncation + 1), weight)]
    coeffs = cheb_expansion_coeffs(f, truncation + 1, max(4 * truncation + 4, 4096))
    measured = reference_integral(weight, f) - apply(rule_for(family, n, weight), f)
    series = math.fsum((coeffs[start:] * terms).tolist())
    assert (_bits(error_series_check(family, n, f, weight, truncation))
            == _bits(abs(measured - series)))


def test_alias_errors_memory_stays_within_chunks():
    tracemalloc.start()
    try:
        records = alias_errors(Family.CLENSHAW_CURTIS, 2000, range(6001), UNIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 6001
    # unchunked, the 6001 x 2000 products alone take 96 MB per temporary
    assert peak < 32 * 2**20, peak


# --- Gauss-Legendre error structure ---------------------------------------------


def test_gauss_exact_below_degree_2n_and_odd():
    rec = alias_errors(Family.GAUSS_LEGENDRE, 20, (39,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.GAUSS_EXACT
    assert abs(rec.computed) <= 1e-12
    # odd degrees above 2n-1 are killed by node symmetry
    rec = alias_errors(Family.GAUSS_LEGENDRE, 20, (41,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.GAUSS_EXACT
    assert abs(rec.computed) <= 1e-12


def test_gauss_half_pi_family():
    # at m = 2n the rule aliases the sqrt weight: the error is near pi/2
    rec = alias_errors(Family.GAUSS_LEGENDRE, 20, (40,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.GAUSS_HALF_PI
    exact_part = 2.0 / (1.0 - 40.0**2)
    assert rec.predicted == pytest.approx(exact_part + math.pi / 2.0, abs=1e-12)
    assert rec.residual <= 10.0 * 40.0 / 20.0**2
    # its mirror at m = 2n + 2 flips the sign
    rec = alias_errors(Family.GAUSS_LEGENDRE, 20, (42,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.GAUSS_HALF_PI
    assert rec.predicted < 0.0
    assert rec.residual <= 10.0 * 42.0 / 20.0**2


def test_gauss_plain_family_and_n_scaling():
    # m = (4n+2) + 6 reduces to (j, r) = (1, 3): leading value 2/35
    rec = alias_errors(Family.GAUSS_LEGENDRE, 50, (208,), UNIT)[0]
    assert rec.reduced_form is ReducedForm.GAUSS_PLAIN
    assert (rec.j, rec.r) == (1, 3)
    exact_part = 2.0 / (1.0 - 208.0**2)
    assert rec.predicted == pytest.approx(exact_part - 2.0 / 35.0, abs=1e-12)
    # the same (j, r) class at doubled n: residual shrinks like m/n^2
    rec2 = alias_errors(Family.GAUSS_LEGENDRE, 100, (408,), UNIT)[0]
    assert rec2.residual < rec.residual


@given(n=st.integers(min_value=1, max_value=30), m=st.integers(min_value=0, max_value=600))
@settings(max_examples=150, deadline=None)
def test_gauss_fold_rebuilds_the_degree(n, m):
    rec = alias_errors(Family.GAUSS_LEGENDRE, n, (m,), UNIT)[0]
    K = _period(Family.GAUSS_LEGENDRE, n)
    form = rec.reduced_form
    assert (form is ReducedForm.GAUSS_EXACT) == (m <= 2 * n - 1 or m % 2 == 1)
    if form is ReducedForm.GAUSS_EXACT:
        assert (rec.p, rec.j, rec.sign, rec.r, rec.predicted) == (0, m, 1, None, 0.0)
    elif form is ReducedForm.GAUSS_PLAIN:
        # m = j(4n+2) + 2r, I_n[T_m] ~ (-1)^j 2/(1-4r^2)
        assert m == rec.j * 2 * K + 2 * rec.r and abs(rec.r) < n
        assert rec.p == rec.j and rec.sign == (-1) ** rec.j
    else:
        # m = (2j-1)(2n+1) -+ 1, I_n[T_m] ~ +-(-1)^j pi/2
        assert form is ReducedForm.GAUSS_HALF_PI and rec.r is None and rec.p == rec.j
        assert m - (2 * rec.j - 1) * K == -rec.sign * (-1) ** rec.j


def test_gauss_sqrt_weight_proof_constant():
    # The half-pi family rests on I_n[sqrt(1-x^2)] -> pi/2.  The convexity
    # bound holds with the angle 2*pi/(2n+1); the observed error actually
    # decays one power faster (~n^-3), so the margin grows with n.
    f = lambda x: np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    for n in (5, 10, 20, 40, 80, 160):
        err = abs(math.pi / 2.0 - apply(gauss_legendre(n), f))
        assert err <= 2.0 * math.sin(2.0 * math.pi / (2.0 * n + 1.0)) ** 2, n


# --- error series ------------------------------------------------------------------


def test_series_single_term():
    # f = T_{n+2} has exactly one coefficient past the exactness degree
    f = lambda x: chebyshev_T(11, x)
    assert error_series_check(Family.CLENSHAW_CURTIS, 9, f, JAC, 40) <= 1e-11


def test_series_polynomial_is_zero_on_both_sides():
    f = lambda x: x**3
    assert error_series_check(Family.CLENSHAW_CURTIS, 9, f, JAC, 40) <= 1e-13


def test_series_converges_with_truncation():
    # abspow (not a bare lambda) so the reference oracle knows where the
    # kink sits and can split the integration region there
    f = abspow(0.3, 2.82)
    rule = rule_for(Family.CLENSHAW_CURTIS, 12, UNIT)
    measured = abs(reference_integral(UNIT, f) - apply(rule, f))
    coarse = error_series_check(Family.CLENSHAW_CURTIS, 12, f, UNIT, 60)
    fine = error_series_check(Family.CLENSHAW_CURTIS, 12, f, UNIT, 600)
    assert fine < coarse
    assert fine <= 0.05 * measured


def test_series_check_validation():
    with pytest.raises(ValueError):
        error_series_check(Family.CLENSHAW_CURTIS, 9, np.exp, JAC, 5)
    with pytest.raises(ValueError):
        error_series_check(Family.GAUSS_LEGENDRE, 9, np.exp, JAC, 40)
