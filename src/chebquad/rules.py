"""Quadrature rule assembly.

Weighted rules (Fejer-1, Fejer-2, Clenshaw-Curtis against a Jacobi or
log-Jacobi weight) come from the identity

    I_n[f] = sum_j b_j(f) m_j = sum_i w_i f(x_i),

where b_j are the interpolation coefficients of f on the point set and
m_j the modified moments; chebcore.interp_weights turns the moment
vector into the explicit weights w_i.  They are built one rule at a time.

Gauss-Legendre (w == 1) uses Newton iteration on the recurrence-evaluated
Legendre polynomial with asymptotic initial guesses.  One batched builder
runs it for many n at once: the half-nodes of every requested rule are
packed into one flat array in descending n, and step j of the three-term
recurrence updates only the prefix of nodes with n >= j.  Each rule keeps
its own convergence test, polishing step and exact zero node for odd n,
and every node goes through the operations of a one-rule build in the
same order, so the nodes and weights do not depend on which other rules
were built alongside.  The builder works in chunks of at most
_GAUSS_CHUNK_NODES half-nodes, which bounds its working set.

Built Gauss-Legendre rules are kept in one store, bounded in total points
rather than in rules and large enough for a whole n = 10..1000 sweep.
rules_for is the sweep entry: it looks up all of a sweep's n and builds
the missing rules in one batched call.  rule_for (one n) and
gauss_legendre go through the same store.
"""

import collections
import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .chebcore import CHEBYSHEV_FAMILIES, Family, interp_weights, make_points
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightSpec, moments_for

__all__ = [
    "QuadratureRule",
    "build_weighted_rule",
    "gauss_legendre",
    "rule_for",
    "rules_for",
    "apply",
    "weight_abs_sum",
]


@dataclass(frozen=True)
class QuadratureRule:
    family: Family
    n: int
    weight: WeightSpec
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _as_ns(ns, least: int) -> list[int]:
    """ns as ints under operator.index (NumPy integers pass, 2.7 raises
    TypeError), each at least ``least``."""
    ns = [operator.index(n) for n in ns]
    for n in ns:
        if n < least:
            raise ValueError(f"n must be positive, got {n}" if least == 1
                             else f"n must be >= {least}, got {n}")
    return ns


@functools.lru_cache(maxsize=512)
def _weighted_rule_cached(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    weights = interp_weights(family, moments_for(weight, n - 1).values)
    nodes = make_points(family, n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(family, n, weight, nodes, weights)


def build_weighted_rule(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """Interpolatory rule on the Chebyshev point set for a weighted integral.

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        n: number of points, an integer (operator.index) n >= 2.
        weight: Jacobi or log-Jacobi weight specification.

    Returns:
        QuadratureRule with explicit nodes and weights; applying it to a
        sampled function equals the coefficient-space sum b_j m_j.
    """
    family = Family(family)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"weighted rules exist for Chebyshev families only, got {family}")
    (n,) = _as_ns((n,), 2)
    return _weighted_rule_cached(family, n, weight)


# Half-nodes per batched Newton pass.  The builder's working set is a few
# float arrays of this length, however many rules a sweep asks for.
_GAUSS_CHUNK_NODES = 8192
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


def _legendre_pairs(x: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) at packed nodes of degree n, which must not increase.

    Step j of the three-term recurrence updates only the prefix of nodes
    with n >= j, so each node takes exactly the steps of a one-rule
    recurrence, with the same operations in the same order.
    """
    ends = np.searchsorted(-degree, -np.arange(int(degree[0]) + 1), side="right")
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, len(ends)):
        m = ends[j]
        step = ((2.0 * j - 1.0) * x[:m] * p[:m] - (j - 1.0) * p_prev[:m]) / j
        p_prev[:m] = p[:m]
        p[:m] = step
    return p, p_prev


def _gauss_rule(n: int, half_nodes: np.ndarray, half_weights: np.ndarray) -> QuadratureRule:
    """The n-point rule from its nonpositive half, mirrored about 0."""
    mirrored = n - len(half_nodes)
    nodes = np.concatenate((half_nodes, -half_nodes[:mirrored][::-1]))
    weights = np.concatenate((half_weights, half_weights[:mirrored][::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
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
    """The batched builder: the rules for every n in ns, by n.

    The half-nodes of all rules are packed in descending n and built in
    chunks of at most _GAUSS_CHUNK_NODES (a larger rule gets a chunk of
    its own).  Nodes and weights equal those of one-rule builds bit for bit.
    """
    rules: dict[int, QuadratureRule] = {}
    chunk: list[int] = []
    size = 0
    for n in sorted(set(ns), reverse=True):
        if chunk and size + (n + 1) // 2 > _GAUSS_CHUNK_NODES:
            rules.update(zip(chunk, _gauss_legendre_chunk(chunk)))
            chunk, size = [], 0
        chunk.append(n)
        size += (n + 1) // 2
    if chunk:
        rules.update(zip(chunk, _gauss_legendre_chunk(chunk)))
    return rules


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _GaussLegendreStore:
    """Gauss-Legendre rules by n, bounded in total points: once the rules
    hold more than ``max_points`` nodes, the least recently used go.

    cache_info() counts every rule looked up as one hit or one miss, as
    functools.lru_cache does; its maxsize and currsize are in points.
    """

    def __init__(self, max_points: int):
        self.max_points = max_points
        self._lock = threading.Lock()
        self.cache_clear()

    def rules(self, ns: list[int]) -> list[QuadratureRule]:
        """The rules for ns, in order; the missing ones built in one batch."""
        found: dict[int, Optional[QuadratureRule]] = {}
        with self._lock:
            for n in ns:
                if n in found:
                    self._hits += 1
                elif n in self._rules:
                    self._rules.move_to_end(n)
                    found[n] = self._rules[n]
                    self._hits += 1
                else:
                    found[n] = None
                    self._misses += 1
        built = _gauss_legendre_rules([n for n, rule in found.items() if rule is None])
        found.update(built)
        with self._lock:
            for n in ns:
                if n in built and n not in self._rules:
                    self._rules[n] = built[n]
                    self._points += n
            while self._points > self.max_points:
                self._points -= self._rules.popitem(last=False)[0]
        return [found[n] for n in ns]

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.max_points, self._points)

    def cache_clear(self) -> None:
        with self._lock:
            self._rules: collections.OrderedDict[int, QuadratureRule] = collections.OrderedDict()
            self._points = self._hits = self._misses = 0


_gauss_legendre_cached = _GaussLegendreStore(_GAUSS_STORE_POINTS)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule for the unit weight on [-1, 1].

    Nodes are Legendre roots refined by Newton iteration (ascending,
    symmetric about 0 by construction); weights are
    2 / ((1 - x^2) P_n'(x)^2).  n must be an integer (operator.index).
    """
    return _gauss_legendre_cached.rules(_as_ns((n,), 1))[0]


def rules_for(family: Family, ns: Iterable[int], weight: WeightSpec) -> Iterator[QuadratureRule]:
    """The rules for (family, n, weight), n running over ns, in the order of ns.

    Every n is checked first (an integer under operator.index, at least 1
    for Gauss-Legendre and 2 otherwise).  Gauss-Legendre accepts only
    UNIT_WEIGHT; its rules are looked up at once and the missing ones
    built in one batched Newton pass before this returns.  Weighted
    Chebyshev-point rules are built one at a time as the iterator
    advances.
    """
    family = Family(family)
    if family is Family.GAUSS_LEGENDRE:
        if weight != UNIT_WEIGHT:
            raise ValueError("Gauss-Legendre handles only the unit weight jacobi:0:0")
        return iter(_gauss_legendre_cached.rules(_as_ns(ns, 1)))
    ns = _as_ns(ns, 2)
    return (build_weighted_rule(family, n, weight) for n in ns)


def rule_for(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """The rule for (family, n, weight): rules_for with one n."""
    return next(rules_for(family, (n,), weight))


def apply(rule: QuadratureRule, f) -> float:
    """Apply the rule to a function: sum w_j f(x_j) with compensated summation.

    ``f`` may be vectorized over arrays or scalar-only; non-finite values
    at any node raise.
    """
    try:
        fv = np.asarray(f(rule.nodes), dtype=float)
        if fv.shape != rule.nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        fv = np.array([float(f(x)) for x in rule.nodes])
    if not np.all(np.isfinite(fv)):
        raise ValueError("integrand returned a non-finite value at a quadrature node")
    return math.fsum(rule.weights * fv)


def weight_abs_sum(rule: QuadratureRule) -> float:
    """Sum of the absolute values of the quadrature weights."""
    return float(math.fsum(np.abs(rule.weights)))
