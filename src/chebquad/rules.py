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
others were built alongside.  A round re-runs the recurrence only at the
nodes whose bits changed since their last evaluation; the others keep
their dp and dx, which depend on nothing but a node's x and n.  Rules
join one pool of rounds as the late rounds of others free room, so each
recurrence pass runs on up to 2 * _CHUNK_POINTS half-nodes, where its
five working arrays (1.25 MiB) still fit a 2 MiB L2 cache.

Weighted sweeps and apply_each run in chunks of at most _CHUNK_POINTS
points, which bounds their working set.  A weighted sweep is its chunks,
built lazily from one moment table: each is one interp_rules call's
points, weights and bounds, kept whole in a store of two n = 100..1000
sweeps.  A stored chunk holds its grid's points array, not a copy, alive
after chebcore's grid store drops the grid: at most 2^20 points (8 MB)
beyond that store's bound.  rules_for splits the chunks into per-rule
views, the studies sum straight from them, and _joined packs any other
(n, nodes, weights) rules into chunks alike.  Built Gauss-Legendre rules
are kept in a store bounded in total points: a whole n = 10..1000 sweep.

One summing path: _chunk_sums alone forms and sums rules' products, for
apply_each, the studies and the alias tables, by one call per chunk of
_rounded_sums, the one kernel: math.fsum bit for bit, left to it only
where a sum is not certified.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .chebcore import Family, _checked_ns, _sample, _Store, interp_rules
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightSpec, moments_for

__all__ = [
    "QuadratureRule",
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
        if not self.nodes.shape == self.weights.shape == (self.n,):
            raise ValueError(f"a {self.n}-point rule needs nodes and weights of shape ({self.n},)")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


_CHUNK_POINTS = 1 << 14  # points per chunk of a sweep


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
    """(P_n(x), P_{n-1}(x)) at packed nodes of degree n, which must not
    increase; there may be none.

    Step j of the three-term recurrence updates only the prefix of nodes
    with n >= j, so each node takes exactly the steps of a one-rule
    recurrence, with the same operations in the same order: five in-place
    ufunc calls on rotating buffers, cut to the prefix as degrees finish.
    """
    ends = np.searchsorted(-degree, -np.arange(int(degree.max(initial=0)) + 1),
                           side="right").tolist()
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


def _gauss_legendre_rules(ns: list[int]) -> dict[int, QuadratureRule]:
    """The batched builder: the rules for every n in ns, by n, bit for bit
    equal to one-rule builds, from one pool of Newton rounds.

    Rules join the packed arrays in descending n, so degrees never increase
    along them: before each round, as many as fit with the round's moved
    nodes in a budget of 2 * _CHUNK_POINTS half-nodes (one larger rule
    joins only a round that evaluates nothing else).  A round calls
    _legendre_pairs once, on the nodes whose bits changed since their last
    evaluation, and updates their dp and dx; every other node keeps its
    own, and x - dx == x there.  A rule takes Newton steps until
    max|dx| <= 1e-14 over its own nodes, then one polishing step, after
    which an odd n gets its exact zero node; the next round gives its
    weights 2 / ((1 - x^2) P_n'(x)^2) and it leaves the pool.
    """
    waiting = sorted(set(ns))  # the next rule to join is the last
    live, phase = [], []       # rules in the pool, in packing order; Newton steps
    # taken, or _POLISH / _WEIGHTS
    rules: dict[int, QuadratureRule] = {}
    state = np.empty((4, 0))   # rows x, degree, dp, dx of the pool's half-nodes
    moved = np.empty(0, dtype=bool)
    while waiting or live:
        room, joining = 2 * _CHUNK_POINTS - np.count_nonzero(moved), []
        while waiting and ((waiting[-1] + 1) // 2 <= room or room == 2 * _CHUNK_POINTS):
            joining.append(waiting.pop())
            room -= (joining[-1] + 1) // 2
        if joining:
            x = np.concatenate([_initial_half_nodes(n) for n in joining])
            state = np.concatenate((state, [x, np.repeat(np.asarray(joining, dtype=float),
                                                         [(n + 1) // 2 for n in joining]),
                                            x, x]), axis=1)  # dp, dx: set before use
            moved = np.concatenate((moved, np.ones(len(x), dtype=bool)))
            live, phase = live + joining, phase + [0] * len(joining)
        x, degree, dp, dx = state
        at = np.flatnonzero(moved)
        xm, dm = x[at], degree[at]
        p, p_prev = _legendre_pairs(xm, dm)
        dp[at] = dm * (xm * p - p_prev) / (xm * xm - 1.0)
        dx[at] = p / dp[at]
        sizes = [(n + 1) // 2 for n in live]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        pins = []
        for r, (n, s, e, step) in enumerate(zip(live, starts.tolist(), ends.tolist(),
                                                np.maximum.reduceat(np.abs(dx), starts).tolist())):
            if phase[r] == _WEIGHTS:
                rules[n] = _gauss_rule(n, x[s:e], 2.0 / ((1.0 - x[s:e] * x[s:e])
                                                         * dp[s:e] * dp[s:e]))
            elif phase[r] == _POLISH:
                pins += [e - 1] * (n % 2)
                phase[r] = _WEIGHTS
            elif step <= _NEWTON_TOL:
                phase[r] = _POLISH
            elif phase[r] + 1 == _NEWTON_STEPS:
                raise NumericalFailure(f"Gauss-Legendre Newton iteration stalled at n={n}")
            else:
                phase[r] += 1
        pinned, stepped = x[pins], xm - dx[at]  # pinned: where last evaluated
        x[at], moved[:] = stepped, False
        moved[at] = stepped.view(np.int64) != xm.view(np.int64)  # by bits: -0.0 to 0.0 moves
        x[pins] = 0.0
        moved[pins] = pinned.view(np.int64) != 0
        stays = [n not in rules for n in live]
        if not all(stays):
            keep = np.repeat(stays, sizes)
            state, moved = state[:, keep], moved[keep]
            live, phase = ([v for v, k in zip(vs, stays) if k] for vs in (live, phase))
    return rules


# Gauss-Legendre rules by n.
_gauss_legendre_cached = _Store(_GAUSS_STORE_POINTS, size=operator.attrgetter("n"))
# interp_rules' (points, weights, bounds) of built weighted sweep chunks by
# (family, weight, chunk), which fix every input of the call: a chunk reads
# m_0..m_{max(chunk)-1}, alike in every moment table, so sweeps over other
# ranges share it.  Sized by weights, 8 MB for two n = 100..1000 sweeps.  The
# points are the grid store's array, not a copy, kept alive after it drops them.
_WEIGHTED_STORE_POINTS = 1 << 20
_weighted_rule_cached = _Store(_WEIGHTED_STORE_POINTS, lambda chunk: len(chunk[1]))


def _weighted_chunks(family: Family, ns: list[int], weight: WeightSpec) -> Iterator[tuple]:
    """(ns, nodes, weights, bounds) of each chunk of a sweep over checked ns:
    rule i at [bounds[i], bounds[i+1]) of the nodes and weights, all read-only."""
    moments = moments_for(weight, max(ns, default=1) - 1).values
    for chunk in _chunks(ns, lambda n: n, _CHUNK_POINTS):
        [(nodes, weights, bounds)] = _weighted_rule_cached.get(
            [(family, weight, tuple(chunk))],
            lambda keys: {keys[0]: interp_rules(family, chunk, moments)})
        yield chunk, nodes, weights, bounds


def _joined(rules: Iterable[tuple]) -> Iterator[tuple]:
    """(n, nodes, weights) rules joined into chunks of at most _CHUNK_POINTS
    points, as _weighted_chunks gives them; a larger rule is a chunk of its own."""
    for chunk in _chunks(rules, operator.itemgetter(0), _CHUNK_POINTS):
        ns, nodes, weights = zip(*chunk)
        yield ns, np.concatenate(nodes), np.concatenate(weights), np.cumsum([0, *ns])


def rules_for(family: Family, ns: Iterable[int], weight: WeightSpec) -> Iterator[QuadratureRule]:
    """The rules for (family, n, weight), n running over ns, in the order of ns.

    Every n is checked first (chebcore._checked_ns: an integer under
    operator.index, at least 1, and at least 2 for Clenshaw-Curtis).
    Gauss-Legendre accepts only UNIT_WEIGHT; its rules are looked up at
    once and the missing ones built in one batched Newton pass before this
    returns.  Weighted rules are built from one moment table
    M_0..M_{max(ns)-1}, one chunk at a time as the iterator advances
    (nothing before the first next()), each a view of its chunk's arrays.
    """
    family, ns, _ = _checked_ns(family, ns)
    if family is not Family.GAUSS_LEGENDRE:
        return (QuadratureRule(family, n, weight, nodes[a:b], weights[a:b])
                for chunk, nodes, weights, bounds in _weighted_chunks(family, ns, weight)
                for n, a, b in zip(chunk, bounds.tolist(), bounds[1:].tolist()))
    if weight != UNIT_WEIGHT:
        raise ValueError("Gauss-Legendre handles only the unit weight jacobi:0:0")
    return iter(_gauss_legendre_cached.get(ns, _gauss_legendre_rules))


def _rule_chunks(family: Family, ns: Iterable[int], weight: WeightSpec) -> Iterator[tuple]:
    """rules_for(family, ns, weight) as _weighted_chunks gives its chunks;
    a weighted sweep's come straight from the stores, unsplit."""
    family, ns, _ = _checked_ns(family, ns)
    if family is Family.GAUSS_LEGENDRE:
        return _joined((r.n, r.nodes, r.weights) for r in rules_for(family, ns, weight))
    return _weighted_chunks(family, ns, weight)


def rule_for(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """The rule for (family, n, weight): rules_for with one n."""
    return next(rules_for(family, (n,), weight))


def _rounded_sums(products: np.ndarray, bounds) -> list[float]:
    """math.fsum(products[a:b]) for every segment [a, b) of bounds (a < b),
    bit for bit, with the whole array summed in a few NumPy calls.

    The extraction of Rump, Ogita & Oishi ("Accurate floating-point
    summation I", SISC 31, 2008), with u = 2^-53 and a segment p_1..p_n:

    * sigma = 2^(e + k), with max|p_i| < 2^e (frexp) and n + 2 <= 2^k, so
      |p_i| <= sigma / 4 and n max|p_i| < sigma.  Then q_i = (sigma + p_i)
      - sigma and p'_i = p_i - q_i are exact (FastTwoSum: |p_i| <= sigma),
      and each q_i is a multiple of u sigma.  Every partial sum of the q_i
      is a multiple of u sigma below sigma in magnitude (for n < 2^27),
      hence a float: Q = sum q_i comes out exact in any order.
    * S = sum p_i = Q + sum p'_i.  Any order of summing n terms errs by at
      most g = (n - 1) u / (1 - (n - 1) u) times the sum of their absolute
      values (additions are exact on underflow), so the computed P' and
      A = sum |p'_i| give |S - Q - P'| <= g / (1 - g) A <= 2 n u A
      (n <= 2^26).
    * TwoSum gives Q + P' = r + t exactly, so |S - r| <= |t| + 2 n u A.
      Computed with three roundings and the factor (1 + 8u), this bound
      comes out at most 2^-1073 below its true value, and that only where
      a product underflows.
    * fsum returns the correctly rounded S, which is r when S lies
      strictly inside r's rounding interval.  The narrower half of that
      interval is half the gap from |r| to the next float towards zero.
      With |r| >= 2^-960 that half gap is a power of two of at least
      2^-1014, and a float below it is at least 2^-1067 below it, so a
      computed bound below the half gap certifies r.

    The rows that fail (zero r, whose sign only fsum knows; a tie or a
    near-tie; |r| < 2^-960; non-finite values; an overflowing sigma, where
    fsum may raise OverflowError) are summed by math.fsum itself.
    """
    bounds = np.asarray(bounds)
    starts, sizes = bounds[:-1], np.diff(bounds)
    with np.errstate(all="ignore"):  # an overflowing sigma or a non-finite p makes r a NaN
        top = np.maximum.reduceat(np.abs(products), starts)
        sigma = np.ldexp(1.0, np.frexp(top)[1] + np.frexp(sizes + 1.0)[1])
        spread = np.repeat(sigma, sizes)
        high = (spread + products) - spread
        low = products - high
        q = np.add.reduceat(high, starts)
        p = np.add.reduceat(low, starts)
        r = q + p
        z = r - q
        t = (q - (r - z)) + (p - z)
        bound = (np.abs(t) + sizes * 2.0 ** -52 * np.add.reduceat(np.abs(low), starts)) \
            * (1.0 + 2.0 ** -50)
        mag = np.abs(r)
        certain = ((bound < (mag - np.nextafter(mag, 0.0)) * 0.5) & (mag >= 2.0 ** -960)
                   & (sizes <= 1 << 26))
    sums = r.tolist()
    for i in np.flatnonzero(~certain).tolist():
        sums[i] = math.fsum(products[bounds[i]:bounds[i + 1]].tolist())
    return sums


def _chunk_sums(chunks: Iterable[tuple], f) -> list[float]:
    """The sums of f under every rule of each (ns, nodes, weights, bounds)
    chunk, in order: f sampled over a chunk's nodes by chebcore._sample,
    and the chunk's sums from one _rounded_sums call."""
    sums = []
    for _, nodes, weights, bounds in chunks:
        sums += _rounded_sums(weights * _sample(f, nodes), bounds)
    return sums


def apply_each(rules: Iterable[QuadratureRule], f) -> list[float]:
    """apply for every rule, in order: _chunk_sums over the rules joined
    into chunks of at most _CHUNK_POINTS points."""
    return _chunk_sums(_joined((r.n, r.nodes, r.weights) for r in rules), f)


def apply(rule: QuadratureRule, f) -> float:
    """Apply the rule to a function: sum w_j f(x_j), correctly rounded,
    equal to math.fsum bit for bit.

    ``f`` may be vectorized over arrays or scalar-only, here as in the
    oracle, the studies and cheb_expansion_coeffs; non-finite values at
    any node raise.
    """
    return apply_each((rule,), f)[0]


def weight_abs_sum(rule: QuadratureRule) -> float:
    """Sum of the absolute values of the quadrature weights, correctly
    rounded (math.fsum bit for bit)."""
    return _rounded_sums(np.abs(rule.weights), [0, rule.n])[0]
