"""Quadrature rule assembly.

Weighted rules (Fejer-1, Fejer-2, Clenshaw-Curtis against a Jacobi or
log-Jacobi weight) come from the identity

    I_n[f] = sum_j b_j(f) m_j = sum_i w_i f(x_i),

where b_j are the interpolation coefficients of f on the point set and
m_j the modified moments; the explicit weights w_i are the transpose of
the coefficient transform applied to the moment vector, realized through
the matching DCT/DST.  Gauss-Legendre (w == 1) uses Newton iteration on
the recurrence-evaluated Legendre polynomial with asymptotic initial
guesses.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .chebcore import CHEBYSHEV_FAMILIES, Family, _angles, make_points
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, MomentTable, WeightSpec, moments_for

__all__ = [
    "QuadratureRule",
    "build_weighted_rule",
    "gauss_legendre",
    "rule_for",
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


def _fejer2_moment_fold(m: np.ndarray) -> np.ndarray:
    """Forward parity cumsums turning T-basis moments into U-basis moments:
    ubar_k = integral of w U_k = 2(m_k + m_{k-2} + ...) with m_0 once."""
    n = len(m)
    u = np.zeros(n)
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        u[idx] = 2.0 * np.cumsum(m[idx])
    u[::2] -= m[0]
    return u


@functools.lru_cache(maxsize=512)
def _weighted_rule_cached(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    table: MomentTable = moments_for(weight, n - 1)
    m = np.asarray(table.values, dtype=float)
    pts = make_points(family, n)
    if family is Family.FEJER1:
        w = scipy.fft.dct(m, type=3) / n
    elif family is Family.CLENSHAW_CURTIS:
        N = n - 1
        w = scipy.fft.dct(m, type=1) / N
        w[0] *= 0.5
        w[-1] *= 0.5
    else:  # Fejer-2
        theta = _angles(family, n)
        w = np.sin(theta) * scipy.fft.dst(_fejer2_moment_fold(m), type=1) / (n + 1.0)
    w.setflags(write=False)
    rule = QuadratureRule(family, n, weight, pts.points, w)
    rule.nodes.setflags(write=False)
    return rule


def build_weighted_rule(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """Interpolatory rule on the Chebyshev point set for a weighted integral.

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        n: number of points, n >= 2.
        weight: Jacobi or log-Jacobi weight specification.

    Returns:
        QuadratureRule with explicit nodes and weights; applying it to a
        sampled function equals the coefficient-space sum b_j m_j.
    """
    family = Family(family)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"weighted rules exist for Chebyshev families only, got {family}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _weighted_rule_cached(family, int(n), weight)


def _legendre_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p, p_prev = ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j, p
    return p, p_prev


@functools.lru_cache(maxsize=128)
def _gauss_legendre_cached(n: int) -> QuadratureRule:
    half = (n + 1) // 2
    k = np.arange(1, half + 1, dtype=float)
    phi = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    theta = phi + np.cos(phi) / np.sin(phi) / (2.0 * (2.0 * n + 1.0) ** 2)
    x = -np.cos(theta)
    if n == 1:
        x = np.zeros(1)
    converged = False
    for _ in range(20):
        p, p_prev = _legendre_pair(x, n)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 1e-14:
            converged = True
            break
    if not converged:
        raise NumericalFailure(f"Gauss-Legendre Newton iteration stalled at n={n}")
    # one polishing step after the tolerance is met
    p, p_prev = _legendre_pair(x, n)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    x -= p / dp
    if n % 2 == 1:
        x[-1] = 0.0
    p, p_prev = _legendre_pair(x, n)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate((x, -x[: n - half][::-1]))
    weights = np.concatenate((w, w[: n - half][::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(Family.GAUSS_LEGENDRE, n, UNIT_WEIGHT, nodes, weights)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule for the unit weight on [-1, 1].

    Nodes are Legendre roots refined by Newton iteration (ascending,
    symmetric about 0 by construction); weights are
    2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _gauss_legendre_cached(int(n))


def rule_for(family: Family, n: int, weight: WeightSpec) -> QuadratureRule:
    """The rule for (family, n, weight): Gauss-Legendre, which accepts only
    UNIT_WEIGHT, or a weighted Chebyshev-point rule."""
    family = Family(family)
    if family is Family.GAUSS_LEGENDRE:
        if weight != UNIT_WEIGHT:
            raise ValueError("Gauss-Legendre handles only the unit weight jacobi:0:0")
        return gauss_legendre(n)
    return build_weighted_rule(family, n, weight)


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
