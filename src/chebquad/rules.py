"""Quadrature rule assembly.

Weighted rules (Fejer-1, Fejer-2, Clenshaw-Curtis against a Jacobi or
log-Jacobi weight) come from the identity

    I_n[f] = sum_j b_j(f) m_j = sum_i w_i f(x_i),

where b_j are the interpolation coefficients of f on the point set and
m_j the modified moments; chebcore.interp_rules turns one moment table
into the points x_i and weights w_i of many rules at once.

Gauss-Legendre (w == 1) uses Newton iteration on the recurrence-evaluated
Legendre polynomial with asymptotic initial guesses, on the packed
half-nodes of many n at once; every node goes through the operations of a
one-rule build in the same order, so the rules do not depend on which
others were built alongside.

Sweeps run in chunks of at most _CHUNK_POINTS points (half as many
Gauss-Legendre half-nodes), which bounds their working set.  rules_for
builds a weighted sweep lazily, one chunk per step, from one moment
table; apply_each calls the integrand once per chunk.  Built rules are
kept in two chebcore._Store instances bounded in total points: the
Gauss-Legendre one holds a whole n = 10..1000 sweep, the weighted one a chunk.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .chebcore import CHEBYSHEV_FAMILIES, Family, _checked_ns, _Store, interp_rules
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightSpec, moments_for

__all__ = [
    "QuadratureRule",
    "build_weighted_rule",
    "gauss_legendre",
    "rule_for",
    "rules_for",
    "apply",
    "apply_each",
    "weight_abs_sum",
]


@dataclass(frozen=True)
class QuadratureRule:
    family: Family
    n: int
    weight: WeightSpec
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


_CHUNK_POINTS = 1 << 14  # points per chunk of a sweep
_points = operator.attrgetter("n")  # of a rule


def _chunks(items: Iterable, size, limit: int) -> Iterator[list]:
    """Consecutive runs of items whose size(item) add up to at most limit;
    an item larger than limit makes a run of its own."""
    run, total = [], 0
    for item in items:
        if run and total + size(item) > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += size(item)
    if run:
        yield run


# Points (a node and its weight each) of the Gauss-Legendre rules kept.  One
# n = 10..1000 sweep holds 500 455 points, 8 MB.
_GAUSS_STORE_POINTS = 1 << 19
_NEWTON_STEPS = 20
_NEWTON_TOL = 1e-14
_POLISH, _WEIGHTS = -1, -2  # rule phases after its Newton steps 0, 1, ...


def _initial_half_nodes(n: int) -> np.ndarray:
    """Asymptotic guesses for the (n + 1) // 2 nonpositive Legendre roots,
    ascending.  Each rule's guesses come from its own arrays, as in a
    one-rule build, so the packed guesses match it to the bit."""
    if n == 1:
        return np.zeros(1)
    k = np.arange(1, (n + 1) // 2 + 1, dtype=float)
    phi = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    theta = phi + np.cos(phi) / np.sin(phi) / (2.0 * (2.0 * n + 1.0) ** 2)
    return -np.cos(theta)


def _legendre_pairs(x: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """(P_n(x), P_{n-1}(x)) at packed nodes of degree n, which must not increase.

    Step j of the three-term recurrence updates only the prefix of nodes
    with n >= j, so each node takes exactly the steps of a one-rule
    recurrence, with the same operations in the same order: five in-place
    ufunc calls on rotating buffers, cut to the prefix as degrees finish.
    """
    ends = np.searchsorted(-degree, -np.arange(int(degree[0]) + 1), side="right").tolist()
    pairs = np.empty((2, len(x)))
    p_prev, p, t, u = np.ones_like(x), x.copy(), np.empty_like(x), np.empty_like(x)
    for j, m in enumerate(ends[2:], start=2):
        if m < len(p):  # the nodes of degree j - 1 are done
            pairs[:, m:len(p)] = p[m:], p_prev[m:]
            x, p, p_prev, t, u = x[:m], p[:m], p_prev[:m], t[:m], u[:m]
        np.multiply(2.0 * j - 1.0, x, t)
        np.multiply(t, p, t)
        np.multiply(j - 1.0, p_prev, u)
        np.subtract(t, u, t)
        np.divide(t, j, t)
        p_prev, p, t = p, t, p_prev
    pairs[:, :len(p)] = p, p_prev
    return pairs


def _gauss_rule(n: int, half_nodes: np.ndarray, half_weights: np.ndarray) -> QuadratureRule:
    """The n-point rule from its nonpositive half, mirrored about 0."""
    mirrored = n - len(half_nodes)
    nodes = np.concatenate((half_nodes, -half_nodes[:mirrored][::-1]))
    weights = np.concatenate((half_weights, half_weights[:mirrored][::-1]))
    return QuadratureRule(Family.GAUSS_LEGENDRE, n, UNIT_WEIGHT, nodes, weights)


def _gauss_legendre_chunk(ns: list[int]) -> list[QuadratureRule]:
    """The rules for distinct, descending ns, built in one set of packed arrays.

    Each round evaluates P_n and P_n' once at every node in the arrays.
    A rule takes Newton steps until max|dx| <= 1e-14 over its own nodes,
    then one polishing step, after which an odd n gets its exact zero
    node; the next round gives its weights 2 / ((1 - x^2) P_n'(x)^2) and
    it leaves the arrays.
    """
    halves = [(n + 1) // 2 for n in ns]
    x = np.concatenate([_initial_half_nodes(n) for n in ns])
    degree = np.repeat(np.asarray(ns, dtype=float), halves)
    live = list(range(len(ns)))   # rules in the arrays, in packing order
    phase = [0] * len(ns)         # Newton steps taken, or _POLISH / _WEIGHTS
    rules = [None] * len(ns)
    while live:
        p, p_prev = _legendre_pairs(x, degree)
        dp = degree * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        sizes = [halves[r] for r in live]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        for r, s, e in zip(live, starts, ends):
            if phase[r] == _WEIGHTS:
                rules[r] = _gauss_rule(ns[r], x[s:e], 2.0 / ((1.0 - x[s:e] * x[s:e])
                                                            * dp[s:e] * dp[s:e]))
        x -= dx
        max_dx = np.maximum.reduceat(np.abs(dx), starts)
        for r, e, step in zip(live, ends, max_dx):
            if phase[r] == _POLISH:
                if ns[r] % 2 == 1:
                    x[e - 1] = 0.0
                phase[r] = _WEIGHTS
            elif phase[r] >= 0:
                if step <= _NEWTON_TOL:
                    phase[r] = _POLISH
                elif phase[r] + 1 == _NEWTON_STEPS:
                    raise NumericalFailure(
                        f"Gauss-Legendre Newton iteration stalled at n={ns[r]}")
                else:
                    phase[r] += 1
        left = [rules[r] is None for r in live]
        if not all(left):
            keep = np.repeat(left, sizes)
            x, degree = x[keep], degree[keep]
            live = [r for r, stays in zip(live, left) if stays]
    return rules


def _gauss_legendre_rules(ns: list[int]) -> dict[int, QuadratureRule]:
    """The batched builder: the rules for every n in ns, by n, built in
    chunks of descending n, bit for bit equal to one-rule builds."""
    rules: dict[int, QuadratureRule] = {}
    for chunk in _chunks(sorted(set(ns), reverse=True), lambda n: (n + 1) // 2,
                         _CHUNK_POINTS // 2):
        rules.update(zip(chunk, _gauss_legendre_chunk(chunk)))
    return rules


# Gauss-Legendre rules by n.
_gauss_legendre_cached = _Store(_GAUSS_STORE_POINTS, size=_points)
# Weighted rules by (family, n, weight).
_weighted_rule_cached = _Store(_CHUNK_POINTS, size=_points)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule for the unit weight on [-1, 1].

    Nodes are Legendre roots refined by Newton iteration (ascending,
    symmetric about 0 by construction); weights are
    2 / ((1 - x^2) P_n'(x)^2).  n must be an integer (operator.index).
    """
    ns = _checked_ns(Family.GAUSS_LEGENDRE, (n,))[1]
    return _gauss_legendre_cached.get(ns, _gauss_legendre_rules)[0]


def _weighted_rules(family: Family, ns: list[int], weight: WeightSpec) -> Iterator[QuadratureRule]:
    moments = moments_for(weight, max(ns, default=1) - 1).values

    def build(keys):
        chunk = [n for _, n, _ in keys]
        nodes, weights, bounds = interp_rules(family, chunk, moments)
        bounds = bounds.tolist()
        return {key: QuadratureRule(family, n, weight, nodes[a:b], weights[a:b])
                for key, n, a, b in zip(keys, chunk, bounds, bounds[1:])}

    for chunk in _chunks(ns, lambda n: n, _CHUNK_POINTS):
        yield from _weighted_rule_cached.get([(family, n, weight) for n in chunk], build)


def build_weighted_rule(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """The interpolatory rule on the n-point Chebyshev grid for a
    Jacobi or log-Jacobi weight: rule_for, Chebyshev families only."""
    family = Family(family)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"weighted rules exist for Chebyshev families only, got {family}")
    return rule_for(family, n, weight)


def rules_for(family: Family, ns: Iterable[int], weight: WeightSpec) -> Iterator[QuadratureRule]:
    """The rules for (family, n, weight), n running over ns, in the order of ns.

    Every n is checked first (chebcore._checked_ns: an integer under
    operator.index, at least 1, and at least 2 for Clenshaw-Curtis).
    Gauss-Legendre accepts only UNIT_WEIGHT; its rules are looked up at
    once and the missing ones built in one batched Newton pass before this
    returns.  Weighted rules are built from one moment table
    M_0..M_{max(ns)-1}, one chunk at a time as the iterator advances
    (nothing before the first next()).
    """
    family, ns, _ = _checked_ns(family, ns)
    if family is not Family.GAUSS_LEGENDRE:
        return _weighted_rules(family, ns, weight)
    if weight != UNIT_WEIGHT:
        raise ValueError("Gauss-Legendre handles only the unit weight jacobi:0:0")
    return iter(_gauss_legendre_cached.get(ns, _gauss_legendre_rules))


def rule_for(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """The rule for (family, n, weight): rules_for with one n."""
    return next(rules_for(family, (n,), weight))


def apply_each(rules: Iterable[QuadratureRule], f) -> list[float]:
    """apply for every rule, in order, one chunk of rules at a time: ``f``
    is called once over a chunk's concatenated nodes (so it must act
    elementwise), or node by node if it is scalar-only."""
    sums = []
    for chunk in _chunks(rules, _points, _CHUNK_POINTS):
        nodes = np.concatenate([rule.nodes for rule in chunk])
        try:
            fv = np.asarray(f(nodes), dtype=float)
            if fv.shape != nodes.shape:
                raise TypeError
        except (TypeError, ValueError):
            fv = np.array([float(f(x)) for x in nodes])
        if not np.all(np.isfinite(fv)):
            raise ValueError("integrand returned a non-finite value at a quadrature node")
        products = (np.concatenate([rule.weights for rule in chunk]) * fv).tolist()
        start = 0
        for rule in chunk:
            sums.append(math.fsum(products[start:start + rule.n]))
            start += rule.n
    return sums


def apply(rule: QuadratureRule, f) -> float:
    """Apply the rule to a function: sum w_j f(x_j) with compensated summation.

    ``f`` may be vectorized over arrays or scalar-only; non-finite values
    at any node raise.
    """
    return apply_each((rule,), f)[0]


def weight_abs_sum(rule: QuadratureRule) -> float:
    """Sum of the absolute values of the quadrature weights."""
    return math.fsum(np.abs(rule.weights).tolist())
