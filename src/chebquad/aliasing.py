"""Aliasing identities on Chebyshev point sets and single-polynomial errors.

On each of the three Chebyshev-point families a high-degree polynomial
T_m coincides at the nodes with a low-degree one, so the quadrature
value of T_m collapses to a rule value of some T_j with j <= n+1.  This
module provides the canonical (p, j, sign) reduction, the resulting
exact error E_n[T_m] = I[T_m] - I_n[T_m] for Jacobi and log-Jacobi
weights, the Gauss-Legendre error formulas (the 2/(1-4r^2) and pi/2
families), and a truncated error-series consistency check.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .chebcore import Family, cheb_expansion_coeffs, chebyshev_T
from .moments import WeightSpec, moments_for
from .rules import QuadratureRule, apply, gauss_legendre, rule_for


class ReducedForm(enum.Enum):
    """Which identity governs the reduced value."""

    IDENTITY = "identity"            # p = 0, j = m: the rule applied to T_m itself
    PLAIN = "plain"                  # I_n[T_m] = sign * I[T_j], j <= n-1
    FEJER1_ZERO = "fejer1-zero"      # m an odd multiple of n: T_m vanishes at the nodes
    FEJER2_EDGE_N = "fejer2-edge-n"      # I_n[T_m] = I_n[T_n]
    FEJER2_EDGE_N1 = "fejer2-edge-n+1"   # I_n[T_m] = I_n[T_{n+1}]
    GAUSS_EXACT = "gauss-exact"      # error identically zero (m <= 2n-1, or odd m)
    GAUSS_PLAIN = "gauss-plain"      # I_n[T_m] ~ (-1)^j 2/(1-4r^2)
    GAUSS_HALF_PI = "gauss-half-pi"  # I_n[T_m] ~ +-pi/2


@dataclass(frozen=True)
class AliasRecord:
    """One reduced degree with its predicted and directly computed error.

    ``predicted`` and ``computed`` are both values of E_n[T_m]; for the
    Chebyshev families the prediction comes from the node-coincidence
    identity (residual at roundoff level), for Gauss-Legendre from the
    leading 2/(1-4r^2) or pi/2 term (residual O(m/n^2)).  ``leading``
    carries |M_j| (resp. |G_j|) of the reduced degree for decay-law
    fits; it is 0.0 where no moment is involved.
    """

    family: Family
    n: int
    m: int
    reduced_form: ReducedForm
    p: int
    j: int
    sign: int
    predicted: float
    computed: float
    residual: float
    leading: float = 0.0
    r: Optional[int] = None   # Gauss-Legendre offset in m = j(4n+2)+2r


def alias_reduce(family: Family, n: int, m: int) -> tuple[int, int, int]:
    """Canonical reduction of degree m on an n-point Chebyshev family.

    n and m are integers (operator.index), n >= 1 (n >= 2 for
    Clenshaw-Curtis) and m >= 0.  Returns (p, j, sign) with m = 2pK +/- j
    for the family modulus 2K (K = n for Fejer-1, n+1 for Fejer-2, n-1
    for Clenshaw-Curtis), 0 <= j <= K, and sign such that the rule value
    on T_m equals sign times the rule value on T_j -- sign is (-1)^p for
    Fejer-1 and +1 otherwise, since T_{2pK +/- j} = T_j on the latter two
    node sets.
    """
    p, j, sign, _ = _reduce(family, n, m)
    return p, j, sign


def _reduce(family: Family, n: int, m: int) -> tuple[int, int, int, ReducedForm]:
    family = Family(family)
    n, m = operator.index(n), operator.index(m)
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if family is Family.FEJER1:
        half = n
    elif family is Family.FEJER2:
        half = n + 1
    elif family is Family.CLENSHAW_CURTIS:
        if n < 2:
            raise ValueError("Clenshaw-Curtis needs n >= 2")
        half = n - 1
    else:
        raise ValueError(f"alias_reduce covers Chebyshev families only, got {family}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    modulus = 2 * half
    q = m % modulus
    if q <= half:
        p, j = m // modulus, q
    else:
        p, j = m // modulus + 1, modulus - q
    sign = (-1) ** p if family is Family.FEJER1 else 1

    if family is Family.FEJER1 and j == n:
        # T_n vanishes at every Fejer-1 node, so any odd multiple of n
        # integrates to exactly zero under any weight.
        form = ReducedForm.FEJER1_ZERO
    elif family is Family.FEJER2 and j == n:
        form = ReducedForm.FEJER2_EDGE_N
    elif family is Family.FEJER2 and j == n + 1:
        form = ReducedForm.FEJER2_EDGE_N1
    elif p == 0:
        form = ReducedForm.IDENTITY
    else:
        form = ReducedForm.PLAIN
    return p, j, sign, form


def _node_sum(rule: QuadratureRule, degree: int) -> float:
    return math.fsum((rule.weights * chebyshev_T(degree, rule.nodes)).tolist())


def alias_errors(family: Family, n: int, ms: Iterable[int], weight: WeightSpec) -> list[AliasRecord]:
    """Exact aliasing errors E_n[T_m] = I[T_m] - I_n[T_m] with their identity
    values, for every degree m in ms, on one rule_for rule.

    ``computed`` subtracts the direct node sum from the modified moment;
    ``predicted`` replaces the node sum by the reduced identity (the
    moment M_j for j <= n-1, the rule's own value of T_n / T_{n+1} at
    the Fejer-2 edge, zero for odd multiples of n on Fejer-1).  The two
    agree to roundoff because T_m and sign*T_j coincide at the nodes.
    Each m takes its own moment table M_0..M_m.
    """
    rule = rule_for(family, n, weight)
    records = []
    for m in ms:
        table = moments_for(weight, m)
        p, j, sign, form = _reduce(family, n, m)
        exact = table.values[m]
        computed = exact - _node_sum(rule, m)
        if form is ReducedForm.FEJER1_ZERO:
            reduced_value = 0.0
        elif form in (ReducedForm.FEJER2_EDGE_N, ReducedForm.FEJER2_EDGE_N1):
            reduced_value = _node_sum(rule, j)
        else:
            # j <= n-1: the rule integrates T_j exactly, so its value is M_j.
            reduced_value = table.values[j]
        predicted = exact - sign * reduced_value
        records.append(AliasRecord(
            family=rule.family, n=rule.n, m=m, reduced_form=form, p=p, j=j, sign=sign,
            predicted=predicted, computed=computed, residual=abs(computed - predicted),
            leading=abs(table.values[j]),
        ))
    return records


def alias_error(family: Family, n: int, m: int, weight: WeightSpec) -> AliasRecord:
    """alias_errors with the one degree m."""
    return alias_errors(family, n, (m,), weight)[0]


def _legendre_exact(m: int) -> float:
    """Integral of T_m over [-1,1] with unit weight."""
    if m % 2 == 1:
        return 0.0
    return 2.0 / (1.0 - m * m)


def gauss_alias_error(n: int, m: int) -> AliasRecord:
    """Gauss-Legendre error on T_m with its leading-term prediction.

    Even m >= 2n decomposes canonically as m = j(4n+2) + 2r with
    -n < r < n, where I_n[T_m] ~ (-1)^j 2/(1-4r^2), or falls in the
    half-pi family m = (2j-1)(2n+1) +/- 1 where I_n[T_m] ~ -+(-1)^j pi/2.
    (The sign pairing of the +-1 branches is fixed numerically; it is
    the mirror of the one a naive reading of the +- would give.)  Both
    predictions carry O(m/n^2) remainders.  Degrees m <= 2n-1 and odd m
    have zero error and are flagged GAUSS_EXACT.  n and m are integers
    (operator.index).
    """
    n, m = operator.index(n), operator.index(m)
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    rule = gauss_legendre(n)
    exact = _legendre_exact(m)
    computed = exact - _node_sum(rule, m)

    if m <= 2 * n - 1 or m % 2 == 1:
        # Exactness below degree 2n, antisymmetry for every odd degree.
        return AliasRecord(
            family=Family.GAUSS_LEGENDRE, n=n, m=m,
            reduced_form=ReducedForm.GAUSS_EXACT,
            p=0, j=m, sign=1,
            predicted=0.0, computed=computed, residual=abs(computed),
        )

    period = 4 * n + 2
    q = m % period
    t = m // period
    if q <= 2 * n - 2:
        j, r = t, q // 2
    elif q >= 2 * n + 4:
        j, r = t + 1, (q - period) // 2
    else:
        # q in {2n, 2n+2}: m = (2j-1)(2n+1) -+ 1 with j = t+1.
        j = t + 1
        pm = -1 if q == 2 * n else 1
        sign = -pm * (-1) ** j
        predicted = exact - sign * math.pi / 2.0
        return AliasRecord(
            family=Family.GAUSS_LEGENDRE, n=n, m=m,
            reduced_form=ReducedForm.GAUSS_HALF_PI,
            p=j, j=j, sign=sign,
            predicted=predicted, computed=computed,
            residual=abs(computed - predicted),
        )

    value = (-1) ** j * 2.0 / (1.0 - 4.0 * r * r)
    return AliasRecord(
        family=Family.GAUSS_LEGENDRE, n=n, m=m,
        reduced_form=ReducedForm.GAUSS_PLAIN,
        p=j, j=j, sign=(-1) ** j,
        predicted=exact - value, computed=computed,
        residual=abs(computed - (exact - value)),
        r=r,
    )


def _single_errors(rule: QuadratureRule, degrees: np.ndarray) -> np.ndarray:
    """E_n[T_j] of the rule for every j in ``degrees`` via direct node sums."""
    if rule.family is Family.GAUSS_LEGENDRE:
        exact = np.array([_legendre_exact(int(d)) for d in degrees])
    else:
        exact = moments_for(rule.weight, int(degrees.max())).values[degrees]
    theta = np.arccos(np.clip(rule.nodes, -1.0, 1.0))
    node_vals = np.cos(np.outer(degrees, theta))
    return exact - node_vals @ rule.weights


def error_series_check(
    family: Family,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    weight: WeightSpec,
    truncation: int,
) -> float:
    """Residual of the aliasing error series against the directly measured error.

    The quadrature error of a function expands as
    E_n[f] = sum_{j >= start} a_j E_n[T_j] with a_j the Chebyshev
    coefficients of f and start = n for the interpolatory Chebyshev
    rules (2n for Gauss-Legendre, whose exactness reaches degree 2n-1).
    Returns |E_n[f] - partial sum up to ``truncation``|, which shrinks
    as the truncation grows whenever the coefficients are absolutely
    summable.
    """
    rule = rule_for(family, n, weight)
    start = 2 * n if rule.family is Family.GAUSS_LEGENDRE else n
    if truncation < start:
        raise ValueError(
            f"truncation {truncation} is below the series start {start}"
        )
    from . import analysis  # deferred: analysis builds on this module's siblings

    reference, _ = analysis.oracle_integral(weight, f)
    measured = reference - apply(rule, f)

    count = truncation + 1
    oversample = max(4 * count, 4096)
    coeffs = cheb_expansion_coeffs(f, count, oversample)
    degrees = np.arange(start, truncation + 1)
    series = float(coeffs[degrees] @ _single_errors(rule, degrees))
    return abs(measured - series)
