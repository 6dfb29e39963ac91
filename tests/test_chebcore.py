import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

import oracles
from chebquad import WeightKind, WeightSpec, chebcore, moments_for, rule_for
from chebquad.chebcore import (
    CHEBYSHEV_FAMILIES,
    Family,
    _PI_LONG,
    _dct1,
    _dct3,
    _dst1,
    _fejer2_moment_fold,
    _build_twiddle,
    _Store,
    cheb_expansion_coeffs,
    chebyshev_T,
    interp_rules,
    make_points,
)


def _bits(a):
    """The float64 bit patterns of a, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


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


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_make_points_equal_interp_rules_points(family):
    ns = range(1 if family is not Family.CLENSHAW_CURTIS else 2, 301)
    points, _, bounds = interp_rules(family, ns, np.random.default_rng(8).standard_normal(300))
    for n, a, b in zip(ns, bounds, bounds[1:]):
        assert np.array_equal(_bits(make_points(family, n)), _bits(points[a:b])), n


def test_make_points_rejects_bad_requests():
    with pytest.raises(ValueError):
        make_points(Family.CLENSHAW_CURTIS, 1)
    with pytest.raises(ValueError):
        make_points(Family.FEJER1, 0)
    with pytest.raises(ValueError):
        make_points(Family.GAUSS_LEGENDRE, 5)
    with pytest.raises(TypeError):
        make_points(Family.FEJER1, 2.5)


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_make_points_hands_out_a_read_only_grid(family):
    weight = WeightSpec(WeightKind.LOGJACOBI, -0.6, -0.5)
    n = 7
    points = make_points(family, n)
    before = points.copy()
    with pytest.raises(ValueError):
        points[0] = 0.5
    with pytest.raises(ValueError):
        points += 1.0
    # later builds and sweeps over the same one-grid chunk are still bit for bit
    m = moments_for(weight, n - 1).values
    nodes, weights = oracles.weighted_rule_per_n(family, n, m)
    built, w, bounds = interp_rules(family, [n], m)
    assert not (built.flags.writeable or w.flags.writeable or bounds.flags.writeable)
    rule = rule_for(family, n, weight)
    for got in (points, built, rule.nodes):
        assert np.array_equal(_bits(got), _bits(before))
        assert np.array_equal(_bits(got), _bits(nodes))
    assert np.array_equal(_bits(w), _bits(weights))
    assert np.array_equal(_bits(rule.weights), _bits(weights))


# --- transforms ---------------------------------------------------------------


# Every length up to 2048, powers of two and their neighbours beyond, and a
# prime, 10007, that pocketfft transforms with Bluestein's algorithm.
_TRANSFORM_SIZES = [*range(1, 2049), 4096, 4097, 10007]


@pytest.mark.parametrize("ours, kind, reference", [
    (_dct1, 1, scipy.fft.dct), (_dst1, 1, scipy.fft.dst),
    (lambda c: _dct3(c, _build_twiddle(len(c))), 3, scipy.fft.dct),
], ids=["dct1", "dst1", "dct3"])
def test_transforms_equal_scipy_fft_bit_for_bit(ours, kind, reference):
    rng = np.random.default_rng(2013)
    moments = moments_for(WeightSpec(WeightKind.LOGJACOBI, -0.6, -0.5), 2047).values
    for n in _TRANSFORM_SIZES:
        if ours is _dct1 and n < 2:
            continue
        inputs = [rng.standard_normal(n),
                  rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n)),  # 60 e-folds
                  -np.zeros(n)]
        if n <= len(moments):
            inputs.append(moments[:n])
        for c in inputs:
            before = c.copy()
            assert np.array_equal(_bits(ours(c)), _bits(reference(c, type=kind))), n
            assert np.array_equal(_bits(c), _bits(before)), n  # the input is left alone


def _twiddles(ns: list) -> dict:
    """_build_twiddle(n) by n, read-only: a _Store builder."""
    tables = {n: _build_twiddle(n) for n in ns}
    for tw in tables.values():
        tw.setflags(write=False)
    return tables


def test_twiddle_store_is_bounded_in_floats():
    store = _Store(max_size=100)
    first = store.get([40], _twiddles)[0]
    assert store.get([40], _twiddles)[0] is first
    store.get([50], _twiddles)
    assert list(store._values) == [40, 50]
    store.get([40], _twiddles)  # now the most recently used
    store.get([30], _twiddles)  # 120 floats: n = 50 goes
    assert list(store._values) == [40, 30]
    assert store.cache_info() == (2, 3, 100, 70)
    assert not first.flags.writeable
    store.cache_clear()
    assert store.cache_info() == (0, 0, 100, 0) and not store._values


def test_twiddle_store_keeps_its_count_under_threads():
    store = _Store(max_size=2000)
    ns = np.random.default_rng(9).integers(1, 300, 400).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(store.get, [n], _twiddles) for n in ns]
            tables = [future.result(timeout=60)[0] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for n, tw in zip(ns, tables):
        assert np.array_equal(_bits(tw), _bits(_build_twiddle(n))), n
    info = store.cache_info()
    assert info.hits + info.misses == len(ns)
    assert info.currsize == sum(map(len, store._values.values())) <= 2000


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_grid_store_keeps_each_grids_transform_inputs(family, monkeypatch):
    # one chunk of both parities, a repeat and the smallest n
    ns = [1, 2, 3, 10, 11, 64, 65, 300, 2][family is Family.CLENSHAW_CURTIS:]
    rng = np.random.default_rng(27)
    first = interp_rules(family, ns, rng.standard_normal(300))
    points, inputs = chebcore._chunk_grids(family, ns)[3]
    assert points is first[0]
    assert not (points.flags.writeable or inputs.flags.writeable)
    with pytest.raises(ValueError):
        inputs[:1] = 0.5
    for n, a, b in zip(ns, first[2], first[2][1:]):
        if family is Family.FEJER1:
            assert np.array_equal(_bits(inputs[a:b]), _bits(_build_twiddle(n))), n
        elif family is Family.FEJER2:
            expected = np.sin(oracles._grid_angles(family, n))
            assert np.array_equal(_bits(inputs[a:b]), _bits(expected)), n
    if family is Family.CLENSHAW_CURTIS:
        assert len(inputs) == 0  # its DCT-I takes none
    # other moments over the same chunk: no grid and no twiddle is computed again
    calls = []
    monkeypatch.setattr(chebcore, "_grids", lambda *args: calls.append(("grids", args)))
    monkeypatch.setattr(chebcore, "_build_twiddle", lambda n: calls.append(("twiddle", n)))
    m = rng.standard_normal(300) * np.exp(rng.uniform(-30.0, 30.0, 300))
    again, weights, bounds = interp_rules(family, ns, m)
    assert calls == [] and again is points
    for n, a, b in zip(ns, bounds, bounds[1:]):
        nodes, w = oracles.weighted_rule_per_n(family, n, m[:n])
        assert np.array_equal(_bits(again[a:b]), _bits(nodes)), n
        assert np.array_equal(_bits(weights[a:b]), _bits(w)), n


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
    with pytest.raises(TypeError):  # cos(1.5 arccos 0.3) = -0.3225 is no polynomial
        chebyshev_T(1.5, 0.3)
    assert chebyshev_T(np.int64(3), 0.5) == chebyshev_T(3, 0.5)


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
    fast = math.fsum(interp_rules(family, [len(moments)], moments)[1] * samples)
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


def test_interp_rules_input_validation_one_grid():
    with pytest.raises(ValueError):
        interp_rules(Family.FEJER1, [0], [])
    with pytest.raises(ValueError):
        interp_rules(Family.FEJER1, [1], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        interp_rules(Family.CLENSHAW_CURTIS, [1], [1.0])
    with pytest.raises(ValueError):
        interp_rules(Family.GAUSS_LEGENDRE, [2], [1.0, 2.0])


def test_fejer2_moment_fold_is_prefix_consistent():
    m = np.random.default_rng(3).standard_normal(300)
    folded = _fejer2_moment_fold(m)
    for n in range(1, 301):
        assert np.array_equal(folded[:n], _fejer2_moment_fold(m[:n])), n


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_interp_rules_equal_one_grid_builds(family):
    # many grids at once, of both parities, repeats and the smallest n among them
    rng = np.random.default_rng(2014)
    least = 2 if family is Family.CLENSHAW_CURTIS else 1
    ns = [*range(least, 300), least, 2, 4096, 4097]
    for m in (rng.standard_normal(4097),
              rng.standard_normal(4097) * np.exp(rng.uniform(-30.0, 30.0, 4097)),  # 60 e-folds
              -np.zeros(4097)):
        before = m.copy()
        points, weights, bounds = interp_rules(family, ns, m)
        assert bounds.tolist() == [0, *np.cumsum(ns).tolist()]
        for n, a, b in zip(ns, bounds, bounds[1:]):
            assert np.array_equal(_bits(points[a:b]), _bits(make_points(family, n))), n
            one = interp_rules(family, [n], m[:n])[1]
            assert np.array_equal(_bits(weights[a:b]), _bits(one)), n
            nodes, w = oracles.weighted_rule_per_n(family, n, m[:n])
            assert np.array_equal(_bits(points[a:b]), _bits(nodes)), n
            assert np.array_equal(_bits(weights[a:b]), _bits(w)), n
        assert np.array_equal(_bits(m), _bits(before))  # the moments are left alone


def test_interp_rules_input_validation():
    m = np.ones(10)
    with pytest.raises(ValueError, match="need 11 moments"):
        interp_rules(Family.FEJER1, [5, 11], m)
    with pytest.raises(ValueError):
        interp_rules(Family.CLENSHAW_CURTIS, [5, 1], m)
    with pytest.raises(TypeError):
        interp_rules(Family.FEJER2, [5, 2.5], m)
    with pytest.raises(ValueError):
        interp_rules(Family.FEJER1, [5], np.ones((2, 10)))
    for family in CHEBYSHEV_FAMILIES:
        points, weights, bounds = interp_rules(family, [], m)
        assert len(points) == len(weights) == 0 and bounds.tolist() == [0]


# --- expansion coefficients -------------------------------------------------


def test_expansion_coeffs_of_exponential():
    # exp(x) = I_0(1) + 2 sum_j I_j(1) T_j, so primed a_j = 2 I_j(1).
    a = cheb_expansion_coeffs(np.exp, count=12, oversample=64)
    expected = 2.0 * scipy.special.iv(np.arange(12), 1.0)
    assert np.allclose(a, expected, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", [4, 5, 64, 1024, 4096])
def test_expansion_coeffs_are_the_exact_dct2_of_the_samples(n):
    # a_j = y_j / n with y = scipy.fft.dct(f(x), type=2): an O(n^2) sum in
    # long double, each angle j(2k+1) pi/2n reduced mod 2 pi in integers,
    # is the reference; the error is at most a unit roundoff of ||y||_2,
    # which is sqrt(2n ||f||^2 + 2 (sum f)^2) by Parseval
    samples = np.random.default_rng(n).standard_normal(n)
    a = cheb_expansion_coeffs(lambda x: samples, n // 4, n)
    k = np.arange(n)
    exact = np.array([2 * np.sum(samples * np.cos(
        _PI_LONG * ((j * (2 * k + 1)) % (4 * n)) / (2 * n))) for j in range(n // 4)])
    norm = math.sqrt(2 * n * np.sum(samples * samples) + 2 * np.sum(samples) ** 2)
    error = np.max(np.abs(a * n - exact.astype(float)))
    assert error <= 2.0 ** -52 * norm, error


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


# --- non-finite input raises -------------------------------------------------


def test_chebyshev_T_rejects_nan():
    # returned nan
    with pytest.raises(ValueError):
        chebyshev_T(3, np.nan)
    with pytest.raises(ValueError):
        chebyshev_T(3, np.array([0.5, np.nan]))


def test_interp_rules_reject_nan_moments():
    # returned all-NaN weights
    with pytest.raises(ValueError, match="finite"):
        interp_rules(Family.FEJER1, [3], [2.0, np.nan, 0.1])


def test_interp_rules_reject_infinite_moments():
    # returned +-inf weights
    with pytest.raises(ValueError, match="finite"):
        interp_rules(Family.CLENSHAW_CURTIS, [3], [2.0, np.inf, 0.1])
    # moments past the largest rule are not read
    m = np.array([2.0, 0.0, np.nan])
    assert np.array_equal(interp_rules(Family.FEJER2, [2], m)[1],
                          interp_rules(Family.FEJER2, [2], m[:2])[1])


def test_expansion_coeffs_reject_nan_samples():
    # returned NaN coefficients
    f = lambda x: np.where(x == x.max(), np.nan, x)
    with pytest.raises(ValueError, match="non-finite"):
        cheb_expansion_coeffs(f, 3, 64)


def test_cheb_eval_primed_convention():
    # the oracle evaluator under both sum conventions
    coeffs = np.array([2.0, 0.0, 0.0])
    x = np.array([-0.7, 0.0, 0.4])
    assert np.allclose(oracles.cheb_eval(coeffs, x), 2.0)
    assert np.allclose(oracles.cheb_eval(coeffs, x, primed=True), 1.0)
    assert oracles.cheb_eval(coeffs, 0.3, primed=True) == pytest.approx(1.0)
