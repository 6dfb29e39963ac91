import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from chebquad.chebcore import CHEBYSHEV_FAMILIES, Family, chebyshev_T, interp_coeffs
from chebquad.moments import WeightKind, WeightSpec, moments_for
from chebquad.rules import (
    apply,
    build_weighted_rule,
    gauss_legendre,
    rule_for,
    weight_abs_sum,
)

UNIT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)
JAC = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
LOG = WeightSpec(WeightKind.LOGJACOBI, -0.3, 0.2)


# --- Gauss-Legendre ----------------------------------------------------------


def test_gauss_two_point_rule():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=2e-15)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 121])
def test_gauss_basic_structure(n):
    rule = gauss_legendre(n)
    assert len(rule.nodes) == n and len(rule.weights) == n
    assert np.all(np.diff(rule.nodes) > 0.0)  # ascending
    assert np.all(rule.weights > 0.0)
    assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-13)
    # symmetric to the last bit by construction
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    if n % 2 == 1:
        assert rule.nodes[n // 2] == 0.0


def test_gauss_matches_scipy():
    x, w = scipy.special.roots_legendre(40)
    rule = gauss_legendre(40)
    assert np.max(np.abs(rule.nodes - x)) < 1e-14
    assert np.max(np.abs(rule.weights - w)) < 1e-14


def test_gauss_exactness_to_degree_2n_minus_1():
    n = 7
    rule = gauss_legendre(n)
    exact = moments_for(UNIT, 2 * n - 1).values
    for j in range(2 * n):
        err = exact[j] - apply(rule, lambda x: chebyshev_T(j, x))
        assert abs(err) <= 1e-12, j


def test_gauss_odd_degree_errors_vanish():
    # symmetry wipes out every odd Chebyshev error, exact or not
    rule = gauss_legendre(9)
    for j in range(1, 25, 2):
        assert abs(apply(rule, lambda x: chebyshev_T(j, x))) <= 1e-13


def test_gauss_input_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        rule_for(Family.GAUSS_LEGENDRE, 5, JAC)


# --- weighted Chebyshev-point rules -----------------------------------------


def test_second_kind_points_chebyshev_weight_recovers_pi():
    rule = build_weighted_rule(Family.FEJER2, 5, WeightSpec(WeightKind.JACOBI, -0.5, -0.5))
    assert apply(rule, lambda x: np.ones_like(x)) == pytest.approx(math.pi, abs=1e-13)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize("weight", [JAC, LOG], ids=["jacobi", "logjacobi"])
def test_weighted_rule_integrates_low_degrees_exactly(family, weight):
    n = 16
    rule = build_weighted_rule(family, n, weight)
    m = moments_for(weight, n - 1).values
    for j in range(n):
        err = m[j] - apply(rule, lambda x: chebyshev_T(j, x))
        assert abs(err) <= 1e-11 * (1.0 + abs(m[j])), (family, j)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_node_space_equals_coefficient_space(family):
    # sum_i w_i f(x_i) must equal sum_j b_j m_j: same functional, two bases
    n = 24
    rule = build_weighted_rule(family, n, JAC)
    f = lambda x: np.exp(x) * np.sin(2.0 * x) + x**2
    node_space = apply(rule, f)
    b = interp_coeffs(family, f(rule.nodes)).coeffs
    m = moments_for(JAC, n - 1).values
    coeff_space = float(b @ m)
    assert abs(node_space - coeff_space) <= 1e-12 * (1.0 + abs(node_space))


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_weights_match_integrated_lagrange_basis(family):
    # ground truth from outside the moment/transform machinery: w_i is the
    # weighted integral of the i-th Lagrange basis polynomial
    weight = WeightSpec(WeightKind.JACOBI, 0.5, -0.6)
    rule = build_weighted_rule(family, 6, weight)
    nodes = [mp.mpf(x) for x in rule.nodes]
    with mp.workdps(30):
        for i, wi in enumerate(rule.weights):
            def integrand(x):
                ell = mp.mpf(1)
                for k, xk in enumerate(nodes):
                    if k != i:
                        ell *= (x - xk) / (nodes[i] - xk)
                return (1 - x) ** mp.mpf("0.5") * (1 + x) ** mp.mpf("-0.6") * ell

            exact = float(mp.quad(integrand, [-1, 0, 1]))
            assert wi == pytest.approx(exact, abs=1e-12), (family, i)


def test_weighted_rule_validation():
    with pytest.raises(ValueError):
        build_weighted_rule(Family.GAUSS_LEGENDRE, 8, UNIT)
    with pytest.raises(ValueError):
        build_weighted_rule(Family.FEJER1, 1, JAC)


def test_rules_and_moment_tables_are_frozen():
    # cached instances are shared between callers
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule_for(Family.FEJER1, 5, JAC).n = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        moments_for(JAC, 8).values = np.zeros(9)


def test_rule_for_dispatch():
    assert rule_for(Family.GAUSS_LEGENDRE, 5, UNIT).family is Family.GAUSS_LEGENDRE
    assert rule_for(Family.FEJER1, 5, JAC).family is Family.FEJER1


# --- applying rules -----------------------------------------------------------


def test_apply_accepts_scalar_only_integrands():
    rule = gauss_legendre(11)
    vectorized = apply(rule, np.exp)
    scalar_only = apply(rule, lambda x: math.exp(x))  # math.exp rejects arrays
    assert scalar_only == pytest.approx(vectorized, abs=1e-15)
    assert vectorized == pytest.approx(math.e - 1.0 / math.e, rel=1e-13)


def test_apply_rejects_non_finite_values():
    rule = gauss_legendre(4)
    with pytest.raises(ValueError):
        apply(rule, lambda x: np.full_like(x, np.nan))


# --- weight sums (stability of the rules) -------------------------------------


def test_positive_weight_rules_have_exact_abs_sums():
    # Gauss and unit-weight Clenshaw-Curtis weights are positive, so the
    # absolute sum is the plain sum
    assert weight_abs_sum(gauss_legendre(30)) == pytest.approx(2.0, abs=1e-13)
    rule = build_weighted_rule(Family.CLENSHAW_CURTIS, 100, UNIT)
    assert np.all(rule.weights > 0.0)
    assert weight_abs_sum(rule) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize(
    "weight",
    [JAC, WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0)],
    ids=["jacobi", "logjacobi"],
)
def test_weight_abs_sum_trend(family, weight):
    # Sum |w_j| approaches integral |w|.  While the weights still share one
    # sign the deviation is exactly zero (the sum telescopes to the zeroth
    # moment); once sign changes appear the deviation decreases strictly.
    target = abs(moments_for(weight, 0).values[0])
    devs = []
    for n in (25, 50, 100, 200, 400, 800):
        rule = build_weighted_rule(family, n, weight)
        devs.append(abs(weight_abs_sum(rule) - target))
    active = [d for d in devs if d > 1e-12]
    assert all(b < a for a, b in zip(active, active[1:])), (family, weight, devs)
    assert devs[-1] < 1e-8 * target
