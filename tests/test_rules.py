import dataclasses
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chebquad import chebcore, rules
from chebquad.analysis import abspow, weight_sum_study
from chebquad.chebcore import CHEBYSHEV_FAMILIES, Family, _Store, chebyshev_T
from chebquad.errors import NumericalFailure
from chebquad.moments import WeightKind, WeightSpec, moments_for
from chebquad.rules import (
    apply,
    apply_each,
    rule_for,
    rules_for,
    weight_abs_sum,
)

UNIT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)
JAC = WeightSpec(WeightKind.JACOBI, 0.2, -0.3)
LOG = WeightSpec(WeightKind.LOGJACOBI, -0.3, 0.2)


# --- Gauss-Legendre ----------------------------------------------------------


def test_gauss_two_point_rule():
    rule = rule_for(Family.GAUSS_LEGENDRE, 2, UNIT)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=2e-15)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 121])
def test_gauss_basic_structure(n):
    rule = rule_for(Family.GAUSS_LEGENDRE, n, UNIT)
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
    rule = rule_for(Family.GAUSS_LEGENDRE, 40, UNIT)
    assert np.max(np.abs(rule.nodes - x)) < 1e-14
    assert np.max(np.abs(rule.weights - w)) < 1e-14


def test_gauss_exactness_to_degree_2n_minus_1():
    n = 7
    rule = rule_for(Family.GAUSS_LEGENDRE, n, UNIT)
    exact = moments_for(UNIT, 2 * n - 1).values
    for j in range(2 * n):
        err = exact[j] - apply(rule, lambda x: chebyshev_T(j, x))
        assert abs(err) <= 1e-12, j


def test_gauss_odd_degree_errors_vanish():
    # symmetry wipes out every odd Chebyshev error, exact or not
    rule = rule_for(Family.GAUSS_LEGENDRE, 9, UNIT)
    for j in range(1, 25, 2):
        assert abs(apply(rule, lambda x: chebyshev_T(j, x))) <= 1e-13


def test_gauss_input_validation():
    with pytest.raises(ValueError):
        rule_for(Family.GAUSS_LEGENDRE, 0, UNIT)
    with pytest.raises(ValueError):
        rule_for(Family.GAUSS_LEGENDRE, 5, JAC)


def test_rule_sizes_must_be_integers():
    # operator.index semantics: 2.7 used to give a 2-point rule
    with pytest.raises(TypeError):
        rule_for(Family.GAUSS_LEGENDRE, 2.7, UNIT)
    with pytest.raises(TypeError):
        rule_for(Family.GAUSS_LEGENDRE, 4.0, UNIT)
    with pytest.raises(TypeError):
        rule_for(Family.FEJER1, 8.5, JAC)
    with pytest.raises(TypeError):
        rules_for(Family.GAUSS_LEGENDRE, [10, 2.7], UNIT)
    with pytest.raises(TypeError):
        rules_for(Family.CLENSHAW_CURTIS, [10, 11.0], JAC)
    rule = rule_for(Family.GAUSS_LEGENDRE, 7, UNIT)
    assert rule_for(Family.GAUSS_LEGENDRE, np.int64(7), UNIT) is rule
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
    assert rule_for(Family.GAUSS_LEGENDRE, 64, UNIT) is built[5]
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
        rule_for(Family.GAUSS_LEGENDRE, 40, UNIT)
    assert rules._gauss_legendre_cached.cache_info().currsize == 0


@st.composite
def _gauss_batches(draw) -> list[int]:
    """Unsorted ns in 1..1200, repeats among them, n = 1 and n = 2 drawn often."""
    ns = draw(st.lists(st.sampled_from([1, 2]) | st.integers(1, 1200), min_size=1, max_size=8))
    return draw(st.permutations(ns + draw(st.lists(st.sampled_from(ns), max_size=3))))


@settings(max_examples=30, deadline=None)
@given(_gauss_batches())
@example([1])
@example([2, 1, 2])
@example([1200, 3, 1, 1199, 2, 1200, 641])
def test_gauss_mixed_batches_are_bit_identical_to_one_rule_builds(ns):
    # the rules of one chunk take different numbers of Newton steps, so
    # their nodes stop moving in different rounds
    rules._gauss_legendre_cached.cache_clear()
    built = list(rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    assert [r.n for r in built] == ns
    for rule in built:
        _assert_per_n_bits(rule)


@settings(max_examples=10, deadline=None)
@given(_gauss_batches())
@example([1200, 3, 1, 1199, 2, 1200, 641])
@example([40, 33, 2, 1, 7, 8])
@pytest.mark.parametrize("points", [2, 16, 64])
def test_gauss_pool_admission_is_bit_identical_to_one_rule_builds(points, ns):
    # with a budget of 4, 32 or 128 half-nodes rules join mid-flight, as the
    # late rounds free room, and a rule larger than the budget joins only a
    # round in which no other node moved
    rules._gauss_legendre_cached.cache_clear()
    with mock.patch.object(rules, "_CHUNK_POINTS", points):
        built = list(rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    assert [r.n for r in built] == ns
    for rule in built:
        _assert_per_n_bits(rule)


def test_gauss_stall_after_other_rules_finished_names_the_rule(monkeypatch):
    # three steps: n = 1200 and 1100 converge, n = 40 needs four; with a
    # budget of 4 half-nodes n = 40 joins after both have left with their weights
    rules._gauss_legendre_cached.cache_clear()
    monkeypatch.setattr(rules, "_NEWTON_STEPS", 3)
    monkeypatch.setattr(rules, "_CHUNK_POINTS", 2)
    finished, gauss_rule = [], rules._gauss_rule
    monkeypatch.setattr(rules, "_gauss_rule",
                        lambda n, *half: finished.append(n) or gauss_rule(n, *half))
    with pytest.raises(NumericalFailure, match=r"stalled at n=40$"):
        list(rules_for(Family.GAUSS_LEGENDRE, [40, 1200, 1100], UNIT))
    assert finished == [1200, 1100]
    assert rules._gauss_legendre_cached.cache_info().currsize == 0


def _counted_gauss_build(monkeypatch, ns) -> dict:
    """Build the rules for ns from an empty store and count the work:
    _legendre_pairs calls, recurrence steps (the loop runs j = 2..max
    degree once per call), node-steps (the degrees of the nodes given to
    it), each rule's rounds (the calls from the one that follows its
    _initial_half_nodes, when it joins, to the one before its _gauss_rule,
    its weights round) and the peak of the half-nodes in the pool."""
    rules._gauss_legendre_cached.cache_clear()
    pairs, guesses, gauss_rule = rules._legendre_pairs, rules._initial_half_nodes, rules._gauss_rule
    count = {"calls": 0, "steps": 0, "node_steps": 0, "live": 0, "peak": 0}
    joined, rounds = {}, {}

    def counted_guesses(n):
        joined[n] = count["calls"]
        count["live"] += (n + 1) // 2
        count["peak"] = max(count["peak"], count["live"])
        return guesses(n)

    def counted_pairs(x, degree):
        count["calls"] += 1
        count["steps"] += max(int(degree.max(initial=1)) - 1, 0)
        count["node_steps"] += int(degree.sum())
        return pairs(x, degree)

    def counted_rule(n, half_nodes, half_weights):
        rounds[n] = count["calls"] - joined[n]
        count["live"] -= len(half_nodes)
        return gauss_rule(n, half_nodes, half_weights)

    monkeypatch.setattr(rules, "_initial_half_nodes", counted_guesses)
    monkeypatch.setattr(rules, "_legendre_pairs", counted_pairs)
    monkeypatch.setattr(rules, "_gauss_rule", counted_rule)
    list(rules_for(Family.GAUSS_LEGENDRE, ns, UNIT))
    return count | {"rounds": rounds}


def test_gauss_rounds_rerun_the_recurrence_only_at_moved_nodes(monkeypatch):
    """An n = 10..500 build from an empty store runs at most 55 % of the
    node-steps of evaluating every node of a rule in every one of its rounds."""
    ns = range(10, 501)
    count = _counted_gauss_build(monkeypatch, ns)
    every_node = sum(count["rounds"][n] * ((n + 1) // 2) * n for n in ns)
    assert count["node_steps"] <= 0.55 * every_node, (count["node_steps"], every_node)


def test_gauss_pool_runs_each_recurrence_pass_on_a_full_budget(monkeypatch):
    """The late rounds' few moved nodes share their recurrence passes with
    the first rounds of the rules that join.  An n = 10..500 build evaluates
    the same 46 074 563 node-steps as separate chunks of 2^13 half-nodes,
    which took 41 passes of 14 174 steps in all, in at most 12 passes of
    at most 4 000; the pool holds at most four budgets on n = 10..1000."""
    count = _counted_gauss_build(monkeypatch, range(10, 501))
    assert count["node_steps"] == 46_074_563
    assert count["calls"] <= 12 and count["steps"] <= 4000, count
    count = _counted_gauss_build(monkeypatch, range(10, 1001))
    assert count["peak"] <= 4 * 2 * rules._CHUNK_POINTS, count["peak"]


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
    # a grid store of 2^12 points drops most chunks' grids between sweeps
    with mock.patch.object(chebcore, "_grid_store", _Store(1 << 12, lambda grid: len(grid[0]))):
        built = list(rules_for(family, ns, weight))
        assert [r.n for r in built] == ns
        for rule in built:
            _assert_weighted_per_n_bits(rule)
        f = lambda x: np.abs(x - 0.5) ** 1.6
        expected = [math.fsum(r.weights * f(r.nodes)) for r in built]
        assert apply_each(built, f) == expected
        assert rules._chunk_sums(rules._rule_chunks(family, ns, weight), f) == expected
        rows = weight_sum_study(family, weight, ns)
        assert [(n, total) for n, total, _ in rows] == [
            (r.n, math.fsum(np.abs(r.weights))) for r in built]


def _sweep_chunks(ns) -> int:
    return len(list(rules._chunks(ns, lambda n: n, rules._CHUNK_POINTS)))


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_weighted_store_serves_a_repeated_sweep_without_a_build(family, interp_rules_calls):
    ns = list(range(100, 1001))
    first = list(rules_for(family, ns, LOG))
    assert len(interp_rules_calls) == _sweep_chunks(ns)
    again = list(rules_for(family, ns, LOG))
    assert len(interp_rules_calls) == _sweep_chunks(ns)
    assert [r.n for r in again] == ns
    for built, stored in zip(first, again):
        assert np.array_equal(built.nodes, stored.nodes), built.n
        assert np.array_equal(built.weights, stored.weights), built.n
        with pytest.raises(ValueError):
            stored.weights[0] = 1.0
        with pytest.raises(ValueError):
            stored.nodes[0] = 1.0


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
@pytest.mark.parametrize("his, builds", [((500, 1000), (8, 24)), ((1000, 500), (31, 1))],
                         ids=["up", "down"])
def test_weighted_store_shares_chunks_across_sweep_ranges(family, his, builds, interp_rules_calls):
    # the two sweeps share their first seven chunks, though their moment
    # tables come from different buckets: a chunk reads only the moments
    # below its largest n, alike in every table, so the second sweep builds
    # only the chunks the first did not
    weight = SWEEP_WEIGHTS[2]  # extended moment route
    for hi, expected in zip(his, builds):
        ns = list(range(100, hi + 1))
        before = len(interp_rules_calls)
        built = list(rules_for(family, ns, weight))
        assert len(interp_rules_calls) - before == expected
        assert [r.n for r in built] == ns
        for rule in built:
            _assert_weighted_per_n_bits(rule)


def test_weighted_store_is_bounded_in_floats(interp_rules_calls):
    store = rules._weighted_rule_cached
    ns = list(range(100, 1001))
    sweeps = [(family, weight) for family in CHEBYSHEV_FAMILIES for weight in (JAC, LOG)]
    for family, weight in sweeps:
        list(rules_for(family, ns, weight))
        assert store.cache_info().currsize <= store.max_size == rules._WEIGHTED_STORE_POINTS
    info = store.cache_info()
    assert (info.hits, info.misses) == (0, len(sweeps) * _sweep_chunks(ns))
    family, weight = sweeps[0]
    next(rules_for(family, ns, weight))  # the oldest chunk was dropped: built again
    assert store.cache_info().misses == info.misses + 1
    assert len(interp_rules_calls) == info.misses + 1


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("family", CHEBYSHEV_FAMILIES)
def test_stored_weighted_chunk_is_served_whole(family, interp_rules_calls, monkeypatch):
    # a stored chunk keeps its nodes and bounds with its weights: once the grid
    # store has dropped every grid, a repeated sweep builds no grid and no rule
    ns = list(range(100, 1001))
    first = [(chunk, *(a.copy() for a in arrays))
             for chunk, *arrays in rules._rule_chunks(family, ns, LOG)]
    built = len(interp_rules_calls)
    chebcore._grid_store.cache_clear()
    grid_calls, grids = [], chebcore._grids

    def counted(family, ns):
        grid_calls.append((family, tuple(ns)))
        return grids(family, ns)

    monkeypatch.setattr(chebcore, "_grids", counted)
    again = list(rules_for(family, ns, LOG))
    chunks = list(rules._rule_chunks(family, ns, LOG))
    assert grid_calls == [] and len(interp_rules_calls) == built
    assert [chunk for chunk, *_ in chunks] == [chunk for chunk, *_ in first]
    for (_, *got), (_, *want) in zip(chunks, first):
        assert all(_same_bits(g, w) for g, w in zip(got, want))
    rule = iter(again)
    for chunk, nodes, weights, bounds in first:
        for n, a, b in zip(chunk, bounds.tolist(), bounds[1:].tolist()):
            r = next(rule)
            assert r.n == n
            assert _same_bits(r.nodes, nodes[a:b]) and _same_bits(r.weights, weights[a:b])
    assert next(rule, None) is None


def test_grid_store_computes_each_chunks_grid_once(monkeypatch):
    store = chebcore._grid_store
    store.cache_clear()
    rules._weighted_rule_cached.cache_clear()
    calls, grids = [], chebcore._grids

    def counted(family, ns):
        calls.append((family, tuple(ns)))
        return grids(family, ns)

    monkeypatch.setattr(chebcore, "_grids", counted)
    ns = list(range(100, 1001))
    chunks = [tuple(chunk) for chunk in rules._chunks(ns, lambda n: n, rules._CHUNK_POINTS)]
    for family in CHEBYSHEV_FAMILIES:  # the cheb-sweep order: two weights, two integrands
        before = len(calls)
        for s in (0.6, 1.6):
            for weight in (JAC, LOG):
                rules._chunk_sums(rules._rule_chunks(family, ns, weight), abspow(0.5, s))
        assert calls[before:] == [(family, chunk) for chunk in chunks]
        assert store.cache_info().currsize <= store.max_size == 1 << 19
    # one family's grids fill the store: the first family's went, and come back once
    list(rules_for(CHEBYSHEV_FAMILIES[0], ns, JAC))
    assert calls[3 * len(chunks):] == [(CHEBYSHEV_FAMILIES[0], chunk) for chunk in chunks]


# --- applying rules -----------------------------------------------------------


def test_apply_accepts_scalar_only_integrands():
    rule = rule_for(Family.GAUSS_LEGENDRE, 11, UNIT)
    vectorized = apply(rule, np.exp)
    scalar_only = apply(rule, lambda x: math.exp(x))  # math.exp rejects arrays
    assert scalar_only == pytest.approx(vectorized, abs=1e-15)
    assert vectorized == pytest.approx(math.e - 1.0 / math.e, rel=1e-13)


def test_apply_rejects_non_finite_values():
    rule = rule_for(Family.GAUSS_LEGENDRE, 4, UNIT)
    with pytest.raises(ValueError):
        apply(rule, lambda x: np.full_like(x, np.nan))


def test_apply_each_equals_per_rule_sums():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(x) * np.abs(x - 0.3) ** 0.7

    # At 500 points the rules n = 2..31 (495 points) share the first chunk,
    # later chunks split the run of rules, and each n > 500 is a chunk alone.
    for points in (rules._CHUNK_POINTS, 500):
        with mock.patch.object(rules, "_CHUNK_POINTS", points):
            sweep = list(rules_for(Family.FEJER2, range(2, 1001), LOG))
            calls.clear()
            values = apply_each(sweep, f)
            assert calls == [sum(r.n for r in chunk)
                             for chunk in rules._chunks(sweep, lambda r: r.n, points)]
            assert max(calls) <= points or (calls[0] == 495
                                            and calls[-500:] == list(range(501, 1001)))
            assert values == [math.fsum(r.weights * f(r.nodes)) for r in sweep]
            scalar = [math.fsum(r.weights * np.array([math.exp(x) for x in r.nodes]))
                      for r in sweep]
            assert apply_each(sweep, math.exp) == scalar  # math.exp rejects arrays
            assert apply(sweep[40], np.cos) == apply_each(sweep, np.cos)[40]
            # the sweep path: the same sums straight from the chunk arrays
            chunks = lambda: rules._rule_chunks(Family.FEJER2, range(2, 1001), LOG)
            calls.clear()
            assert rules._chunk_sums(chunks(), f) == values
            assert len(calls) == _sweep_chunks(range(2, 1001))
            assert rules._chunk_sums(chunks(), math.exp) == scalar


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
    f = lambda x: np.where(x == bad, np.inf, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        apply_each([first, second], f)
    with pytest.raises(ValueError, match="non-finite"):  # the sweep path
        rules._chunk_sums(rules._rule_chunks(Family.FEJER1, [10000, 10001], JAC), f)


# --- weight sums (stability of the rules) -------------------------------------


def test_positive_weight_rules_have_exact_abs_sums():
    # Gauss and unit-weight Clenshaw-Curtis weights are positive, so the
    # absolute sum is the plain sum
    rule = rule_for(Family.GAUSS_LEGENDRE, 30, UNIT)
    assert weight_abs_sum(rule) == pytest.approx(2.0, abs=1e-13)
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
