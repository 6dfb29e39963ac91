import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chebquad import rules
from chebquad.chebcore import CHEBYSHEV_FAMILIES, Family, _Store, chebyshev_T
from chebquad.errors import NumericalFailure
from chebquad.moments import WeightKind, WeightSpec, moments_for
from chebquad.rules import (
    apply,
    apply_each,
    gauss_legendre,
    rule_for,
    rules_for,
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


def test_rule_sizes_must_be_integers():
    # operator.index semantics: 2.7 used to give a 2-point rule
    with pytest.raises(TypeError):
        gauss_legendre(2.7)
    with pytest.raises(TypeError):
        gauss_legendre(4.0)
    with pytest.raises(TypeError):
        rule_for(Family.FEJER1, 8.5, JAC)
    with pytest.raises(TypeError):
        rules_for(Family.GAUSS_LEGENDRE, [10, 2.7], UNIT)
    with pytest.raises(TypeError):
        rules_for(Family.CLENSHAW_CURTIS, [10, 11.0], JAC)
    assert gauss_legendre(np.int64(7)) is gauss_legendre(7)
    rule = rule_for(Family.FEJER1, np.int32(8), JAC)
    assert rule.n == 8 and type(rule.n) is int
    assert [r.n for r in rules_for(Family.FEJER2, np.arange(5, 8), JAC)] == [5, 6, 7]


def _assert_per_n_bits(rule):
    nodes, weights = oracles.gauss_legendre_per_n(rule.n)
    assert np.array_equal(rule.nodes, nodes), rule.n
    assert np.array_equal(rule.weights, weights), rule.n


def test_gauss_batched_builder_is_bit_identical_to_one_rule_builds():
    rules._gauss_legendre_cached.cache_clear()
    ns = list(range(1, 201)) + list(range(222, 1001, 37)) + [1000]
    built = list(rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    assert [r.n for r in built] == ns
    for rule in built:
        _assert_per_n_bits(rule)


def test_gauss_batch_takes_unsorted_and_repeated_ns():
    rules._gauss_legendre_cached.cache_clear()
    ns = [97, 3, 500, 3, 1, 64, 97, 2]
    built = list(rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    assert [r.n for r in built] == ns
    assert built[1] is built[3] and built[0] is built[6]
    for rule in built:
        _assert_per_n_bits(rule)
    info = rules._gauss_legendre_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (6, 2, 97 + 3 + 500 + 1 + 64 + 2)
    assert gauss_legendre(64) is built[5]
    assert rules._gauss_legendre_cached.cache_info().hits == 3


def test_gauss_store_is_bounded_in_points():
    store = _Store(max_size=100, size=lambda rule: rule.n)
    build = rules._gauss_legendre_rules
    first = store.get([60, 30], build)
    store.get([50], build)  # 140 points: the least recently used rule, n = 60, goes
    assert store.cache_info() == (0, 3, 100, 80)
    assert store.get([30], build)[0] is first[1]
    assert store.get([60], build)[0] is not first[0]
    assert store.cache_info() == (1, 4, 100, 90)  # n = 60 back, n = 50 out


def test_gauss_newton_stall_names_the_rule(monkeypatch):
    rules._gauss_legendre_cached.cache_clear()
    monkeypatch.setattr(rules, "_NEWTON_STEPS", 1)
    # n = 1 converges in its first step (dx = 0); n = 40 cannot
    with pytest.raises(NumericalFailure, match=r"stalled at n=40$"):
        list(rules_for(Family.GAUSS_LEGENDRE, [1, 40], UNIT))
    with pytest.raises(NumericalFailure, match=r"stalled at n=40$"):
        gauss_legendre(40)
    assert rules._gauss_legendre_cached.cache_info().currsize == 0


# --- weighted Chebyshev-point rules -----------------------------------------


def test_second_kind_points_chebyshev_weight_recovers_pi():
    rule = rule_for(Family.FEJER2, 5, WeightSpec(WeightKind.JACOBI, -0.5, -0.5))
    assert apply(rule, lambda x: np.ones_like(x)) == pytest.approx(math.pi, abs=1e-13)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize("weight", [JAC, LOG], ids=["jacobi", "logjacobi"])
def test_weighted_rule_integrates_low_degrees_exactly(family, weight):
    n = 16
    rule = rule_for(family, n, weight)
    m = moments_for(weight, n - 1).values
    for j in range(n):
        err = m[j] - apply(rule, lambda x: chebyshev_T(j, x))
        assert abs(err) <= 1e-11 * (1.0 + abs(m[j])), (family, j)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_node_space_equals_coefficient_space(family):
    # sum_i w_i f(x_i) must equal sum_j b_j m_j: same functional, two bases
    n = 24
    rule = rule_for(family, n, JAC)
    f = lambda x: np.exp(x) * np.sin(2.0 * x) + x**2
    node_space = apply(rule, f)
    b = oracles.interp_coeffs_direct(family, f(rule.nodes))
    m = moments_for(JAC, n - 1).values
    coeff_space = float(b @ m)
    assert abs(node_space - coeff_space) <= 1e-12 * (1.0 + abs(node_space))


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_weights_match_integrated_lagrange_basis(family):
    # ground truth from outside the moment/transform machinery: w_i is the
    # weighted integral of the i-th Lagrange basis polynomial
    weight = WeightSpec(WeightKind.JACOBI, 0.5, -0.6)
    rule = rule_for(family, 6, weight)
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
        rule_for(Family.FEJER1, 0, JAC)


@pytest.mark.parametrize("family", [Family.FEJER1, Family.FEJER2])
def test_fejer_one_point_rule_is_the_midpoint_rule(family):
    # n = 1 has K >= 1 on both Fejer grids: one node near 0, weight M_0
    for weight in (UNIT, JAC):
        rule = rule_for(family, 1, weight)
        assert abs(rule.nodes[0]) < 1e-16
        assert np.array_equal(rule.weights, moments_for(weight, 0).values)
    with pytest.raises(ValueError):
        rule_for(Family.CLENSHAW_CURTIS, 1, JAC)


def test_rules_and_moment_tables_are_frozen():
    # cached instances are shared between callers
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule_for(Family.FEJER1, 5, JAC).n = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        moments_for(JAC, 8).values = np.zeros(9)


@pytest.mark.parametrize("n, nodes, weights", [
    (1, [-0.5, 0.5], [1.0, 1.0]),     # apply summed both points under n = 1
    (3, [-0.5, 0.5], [1.0, 1.0]),     # apply failed inside _rounded_sums
    (2, [-0.5, 0.5], [1.0]),
    (2, [[-0.5, 0.5]], [[1.0, 1.0]]),
])
def test_rule_arrays_must_be_one_dimensional_of_length_n(n, nodes, weights):
    with pytest.raises(ValueError):
        rules.QuadratureRule(Family.FEJER1, n, UNIT, np.array(nodes), np.array(weights))


def test_rule_for_dispatch():
    assert rule_for(Family.GAUSS_LEGENDRE, 5, UNIT).family is Family.GAUSS_LEGENDRE
    assert rule_for(Family.FEJER1, 5, JAC).family is Family.FEJER1


def test_rules_for_checks_every_n_first_and_builds_chebyshev_rules_lazily(interp_rules_calls):
    with pytest.raises(ValueError):
        rules_for(Family.FEJER1, [5, 0], JAC)
    with pytest.raises(ValueError):
        rules_for(Family.GAUSS_LEGENDRE, [5, 0], UNIT)
    with pytest.raises(ValueError):
        rules_for(Family.GAUSS_LEGENDRE, [5], JAC)
    # chunks of at most 2^14 points: [6000, 6001], then [6002, 5]
    sweep = rules_for(Family.CLENSHAW_CURTIS, [6000, 6001, 6002, 5], JAC)
    assert interp_rules_calls == []
    first = next(sweep)
    assert first.n == 6000
    assert interp_rules_calls == [[6000, 6001]]
    second = next(sweep)
    assert second.n == 6001 and second.nodes.base is first.nodes.base
    assert interp_rules_calls == [[6000, 6001]]
    assert next(sweep).n == 6002
    assert interp_rules_calls == [[6000, 6001], [6002, 5]]
    assert [r.n for r in sweep] == [5]
    assert interp_rules_calls == [[6000, 6001], [6002, 5]]


def _assert_weighted_per_n_bits(rule):
    moments = moments_for(rule.weight, rule.n - 1).values
    nodes, weights = oracles.weighted_rule_per_n(rule.family, rule.n, moments)
    assert np.array_equal(rule.nodes, nodes), rule.n
    assert np.array_equal(rule.weights, weights), rule.n


SWEEP_WEIGHTS = [
    WeightSpec(WeightKind.JACOBI, -0.3, 0.2),
    WeightSpec(WeightKind.LOGJACOBI, -0.6, -0.5),
    WeightSpec(WeightKind.JACOBI, 2.062, 1.478),  # extended moment route
]


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize("weight", SWEEP_WEIGHTS, ids=["jacobi", "logjacobi", "extended"])
def test_weighted_sweep_is_bit_identical_to_one_rule_builds(family, weight):
    ns = list(range(2, 1001))
    built = list(rules_for(family, ns, weight))
    assert [r.n for r in built] == ns
    for rule in built:
        assert not (rule.nodes.flags.writeable or rule.weights.flags.writeable)
        _assert_weighted_per_n_bits(rule)


@given(ns=st.lists(st.integers(2, 3000), min_size=1, max_size=25),
       family=st.sampled_from(CHEBYSHEV_FAMILIES),
       weight=st.sampled_from(SWEEP_WEIGHTS[:2]))
@settings(max_examples=30, deadline=None)
def test_weighted_sweep_takes_unsorted_and_repeated_ns(ns, family, weight):
    built = list(rules_for(family, ns, weight))
    assert [r.n for r in built] == ns
    for rule in built:
        _assert_weighted_per_n_bits(rule)
    f = lambda x: np.abs(x - 0.5) ** 1.6
    assert apply_each(built, f) == [math.fsum(r.weights * f(r.nodes)) for r in built]


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


def test_apply_each_equals_per_rule_sums():
    sweep = list(rules_for(Family.FEJER2, range(2, 1001), LOG))
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(x) * np.abs(x - 0.3) ** 0.7

    values = apply_each(sweep, f)
    assert len(calls) == len(list(rules._chunks(sweep, lambda r: r.n, rules._CHUNK_POINTS)))
    assert max(calls) <= rules._CHUNK_POINTS
    assert values == [math.fsum(r.weights * f(r.nodes)) for r in sweep]
    scalar = [math.fsum(r.weights * np.array([math.exp(x) for x in r.nodes])) for r in sweep]
    assert apply_each(sweep, math.exp) == scalar  # math.exp rejects arrays
    assert apply(sweep[40], np.cos) == apply_each(sweep, np.cos)[40]


def _counting_fsum(monkeypatch) -> list:
    """Count the calls of math.fsum (rules.math is the math module)."""
    calls, fsum = [], math.fsum

    def counted(values):
        calls.append(1)
        return fsum(values)

    monkeypatch.setattr(rules.math, "fsum", counted)
    return calls


def test_apply_each_calls_fsum_only_for_uncertified_rules(monkeypatch):
    sweep = list(rules_for(Family.FEJER1, range(100, 1001), LOG))
    f = lambda x: np.exp(x) * np.abs(x - 0.3) ** 0.7
    expected = [math.fsum(r.weights * f(r.nodes)) for r in sweep]
    calls = _counting_fsum(monkeypatch)
    assert apply_each(sweep, f) == expected
    assert len(calls) <= 3  # the fallbacks, not one call per rule


def _bits_and_sign(values):
    return [(math.copysign(1.0, v), float(v).hex()) for v in values]


def _fsum_or_overflow(row):
    try:
        return math.fsum(row.tolist())
    except OverflowError:
        return OverflowError


_finite = st.floats(allow_nan=False, allow_infinity=False)
_subnormal = st.integers(-(1 << 52), 1 << 52).map(lambda i: i * 5e-324)
_huge = st.floats(1e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x]))
_sizes = st.one_of(st.just(1), st.integers(1, 7).flatmap(
    lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])))


@st.composite
def _cancelling(draw):
    """Pairs y, -y of any size around a small residue, shuffled."""
    big = draw(st.lists(_finite, min_size=1, max_size=20))
    small = draw(st.lists(st.floats(-1.0, 1.0), max_size=4))
    return draw(st.permutations([*big, *(-y for y in big), *small]))


@st.composite
def _tie(draw):
    """b + ulp(b)/2, exactly halfway between two floats, with cancelling
    pairs and possibly a tie-breaking nudge."""
    b = draw(st.floats(1e-290, 1e290)) * draw(st.sampled_from([1.0, -1.0]))
    pairs = draw(st.lists(st.floats(-1e300, 1e300), max_size=4))
    nudge = draw(st.sampled_from([[], [5e-324], [-math.ulp(b) / 1024]]))
    return draw(st.permutations([b, math.copysign(math.ulp(b) / 2, b), *pairs,
                                 *(-y for y in pairs), *nudge]))


def _sized(values):
    return _sizes.flatmap(lambda n: st.lists(values, min_size=n, max_size=n))


_rows = st.lists(st.one_of(
    _sized(_finite), _sized(_subnormal), _sized(_huge),
    _sized(st.sampled_from([0.0, -0.0])), _sized(st.floats(-1e3, 1e3)),
    _cancelling(), _tie(),
).map(lambda row: np.array(row, dtype=float)), min_size=1, max_size=8)


@given(rows=_rows)
@settings(max_examples=400, deadline=None)
def test_rounded_sums_equal_fsum_bit_for_bit(rows):
    expected = [_fsum_or_overflow(row) for row in rows]
    bounds = np.cumsum([0, *map(len, rows)])
    if OverflowError in expected:
        with pytest.raises(OverflowError):
            rules._rounded_sums(np.concatenate(rows), bounds)
        rows = [row for row, value in zip(rows, expected) if value is not OverflowError]
        expected = [value for value in expected if value is not OverflowError]
        bounds = np.cumsum([0, *map(len, rows)])
    if rows:
        got = rules._rounded_sums(np.concatenate(rows), bounds)
        assert _bits_and_sign(got) == _bits_and_sign(expected)


def test_rounded_sums_fall_back_to_fsum_where_uncertified(monkeypatch):
    rows = [np.array([3.0, -1.25, 0.5]),         # certified
            np.array([1.0, 2.0 ** -53]),         # a tie: fsum rounds to even, 1.0
            # just below the tie under 1.0, whose lower gap is the narrow one:
            # the rounded remainder ties back up to 1.0, fsum gives 1 - 2^-53
            np.array([1.0, -2.0 ** -54, -0.4 * 2.0 ** -108]),
            np.array([0.0, -0.0]), -np.zeros(3),  # zero: only fsum knows its sign
            np.array([1e-300]),                  # |sum| < 2^-960
            np.array([2.0 ** 1022, 2.0 ** 1022, -2.0 ** 1022])]  # sigma overflows
    expected = [math.fsum(row.tolist()) for row in rows]
    calls = _counting_fsum(monkeypatch)
    got = rules._rounded_sums(np.concatenate(rows), np.cumsum([0, *map(len, rows)]))
    assert _bits_and_sign(got) == _bits_and_sign(expected)
    assert len(calls) == len(rows) - 1
    with pytest.raises(OverflowError):  # fsum's intermediate overflow
        rules._rounded_sums(np.array([1e308, 1e308, -1e308]), [0, 3])


def test_apply_each_rejects_non_finite_values_in_a_later_chunk():
    first, second = rules_for(Family.FEJER1, [10000, 10001], JAC)  # one chunk each
    bad = second.nodes[5]
    assert bad not in first.nodes
    with pytest.raises(ValueError, match="non-finite"):
        apply_each([first, second], lambda x: np.where(x == bad, np.inf, 1.0))


# --- weight sums (stability of the rules) -------------------------------------


def test_positive_weight_rules_have_exact_abs_sums():
    # Gauss and unit-weight Clenshaw-Curtis weights are positive, so the
    # absolute sum is the plain sum
    assert weight_abs_sum(gauss_legendre(30)) == pytest.approx(2.0, abs=1e-13)
    rule = rule_for(Family.CLENSHAW_CURTIS, 100, UNIT)
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
        rule = rule_for(family, n, weight)
        devs.append(abs(weight_abs_sum(rule) - target))
    active = [d for d in devs if d > 1e-12]
    assert all(b < a for a, b in zip(active, active[1:])), (family, weight, devs)
    assert devs[-1] < 1e-8 * target
