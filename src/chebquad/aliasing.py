"""Aliasing identities and single-polynomial errors on all four rule families.

On an n-point rule a high-degree T_m takes the node values of a low-degree
polynomial: m folds as m = 2pK +- d about the family's half-period K
(chebcore._HALF_PERIOD: n, n+1 and n-1 for Fejer-1, Fejer-2 and
Clenshaw-Curtis, 2n+1 for Gauss-Legendre).  On the Chebyshev point sets
the rule value of T_m is then +-(the rule value of T_j), j = d <= n+1;
on Gauss-Legendre the fold gives the leading 2/(1-4r^2) and pi/2 terms of
the error.  This module provides the canonical (p, j, sign) reduction,
and the exact errors E_n[T_m] = I[T_m] - I_n[T_m] of every family with
their predictions.  Every rule value I_n[T_m] is a correctly rounded sum
of rules._chunk_sums; analysis.error_series_check sums these errors as
the terms of a function's error series.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .chebcore import CHEBYSHEV_FAMILIES, Family, _checked_ns
from .moments import WeightSpec, _bucket, moments_for
from .rules import QuadratureRule, _chunk_sums, _joined, rule_for

__all__ = ["ReducedForm", "AliasRecord", "alias_reduce", "alias_errors"]


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
    for the family's half-period K (chebcore._HALF_PERIOD: n for Fejer-1,
    n+1 for Fejer-2, n-1 for Clenshaw-Curtis), 0 <= j <= K, and sign such
    that the rule value on T_m equals sign times the rule value on T_j --
    sign is (-1)^p for Fejer-1 and +1 otherwise, since T_{2pK +/- j} = T_j
    on the latter two node sets.
    """
    if Family(family) not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"alias_reduce covers Chebyshev families only, got {family}")
    family, (n,), (half,) = _checked_ns(family, (n,))
    return _fold(family, n, half, m)[:3]


def _fold(family: Family, n: int, half: int, m: int) -> tuple:
    """(p, j, sign, form, r) of degree m on a checked n-point rule of
    half-period K = half, from the one fold m = 2pK + side * d, 0 <= d <= K.

    On the Chebyshev families j = d.  On Gauss-Legendre (K = 2n+1) an even
    m >= 2n is m = j(4n+2) + 2r with j = p, r = side * d / 2 and |r| < n,
    where I_n[T_m] ~ (-1)^j 2/(1-4r^2), or, where d = 2n, m = (2j-1)(2n+1)
    -+ 1 with j = p + (side > 0), where I_n[T_m] ~ side (-1)^j pi/2 (a sign
    pairing fixed numerically); its records carry p = j.
    """
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    p, d = divmod(m, 2 * half)
    side = 1 if d <= half else -1
    if side < 0:
        p, d = p + 1, 2 * half - d
    if family is Family.GAUSS_LEGENDRE:
        if m <= 2 * n - 1 or m % 2 == 1:
            # Exactness below degree 2n, antisymmetry for every odd degree.
            return 0, m, 1, ReducedForm.GAUSS_EXACT, None
        if d == 2 * n:
            j = p + (side > 0)
            return j, j, side * (-1) ** j, ReducedForm.GAUSS_HALF_PI, None
        return p, p, (-1) ** p, ReducedForm.GAUSS_PLAIN, side * d // 2
    sign = (-1) ** p if family is Family.FEJER1 else 1
    if family is Family.FEJER1 and d == n:
        # T_n vanishes at every Fejer-1 node, so any odd multiple of n
        # integrates to exactly zero under any weight.
        form = ReducedForm.FEJER1_ZERO
    elif family is Family.FEJER2 and d == n:
        form = ReducedForm.FEJER2_EDGE_N
    elif family is Family.FEJER2 and d == n + 1:
        form = ReducedForm.FEJER2_EDGE_N1
    elif p == 0:
        form = ReducedForm.IDENTITY
    else:
        form = ReducedForm.PLAIN
    return p, d, sign, form, None


def _rule_values(rule: QuadratureRule, degrees: list[int]) -> list[float]:
    """I_n[T_m] for every m in degrees, correctly rounded: rules._chunk_sums
    of cos over one (n, m theta, w) rule per degree, theta = arccos x, so
    every product is w_i cos(m arccos x_i) (chebyshev_T's arithmetic)."""
    theta = np.arccos(np.clip(rule.nodes, -1.0, 1.0))
    return _chunk_sums(_joined((rule.n, m * theta, rule.weights) for m in degrees), np.cos)


def _legendre_exact(m: int) -> float:
    """Integral of T_m over [-1,1] with unit weight."""
    if m % 2 == 1:
        return 0.0
    return 2.0 / (1.0 - m * m)


def alias_errors(family: Family, n: int, ms: Iterable[int], weight: WeightSpec) -> list[AliasRecord]:
    """Exact aliasing errors E_n[T_m] = I[T_m] - I_n[T_m] and their
    predictions, for every degree m in ms (integers), on one rule_for rule.

    ``computed`` subtracts the node sum from the exact integral;
    ``predicted`` is exact - sign * value, the value of the reduced form
    in place of the node sum: M_j for j <= n-1, the rule's own value of
    T_n / T_{n+1} at the Fejer-2 edge, zero for odd multiples of n on
    Fejer-1, and the leading 2/(1-4r^2) or pi/2 on Gauss-Legendre (the
    exact integral itself, a zero prediction, for GAUSS_EXACT).  Every m is
    checked before any node sum, and every sum comes from one _rule_values call.
    """
    rule = rule_for(family, n, weight)
    family, (n,), (half,) = _checked_ns(rule.family, (rule.n,))
    reduced = [(m, *_fold(family, n, half, m)) for m in map(operator.index, ms)]
    edges = (rule.n, rule.n + 1) if rule.family is Family.FEJER2 else ()
    degrees = sorted({m for m, *_ in reduced}.union(edges))
    node_sum = dict(zip(degrees, _rule_values(rule, degrees)))
    # moments_for(weight, m) reads the table of m's bucket: read each bucket once
    tables = {bucket: moments_for(weight, bucket).values
              for bucket in {_bucket(m) for m, *_ in reduced}
              if rule.family is not Family.GAUSS_LEGENDRE}
    records = []
    for m, p, j, sign, form, r in reduced:
        if rule.family is Family.GAUSS_LEGENDRE:
            exact, leading = _legendre_exact(m), 0.0
        else:
            table = tables[_bucket(m)]
            exact, leading = table[m], abs(table[j])
        if form is ReducedForm.GAUSS_EXACT:
            value = exact
        elif form is ReducedForm.GAUSS_PLAIN:
            value = 2.0 / (1.0 - 4.0 * r * r)
        elif form is ReducedForm.GAUSS_HALF_PI:
            value = math.pi / 2.0
        elif form is ReducedForm.FEJER1_ZERO:
            value = 0.0
        elif form in (ReducedForm.FEJER2_EDGE_N, ReducedForm.FEJER2_EDGE_N1):
            value = node_sum[j]
        else:
            # j <= n-1: the rule integrates T_j exactly, so its value is M_j.
            value = table[j]
        computed = exact - node_sum[m]
        predicted = exact - sign * value
        records.append(AliasRecord(
            family=rule.family, n=rule.n, m=m, reduced_form=form, p=p, j=j, sign=sign,
            predicted=predicted, computed=computed, residual=abs(computed - predicted),
            leading=leading, r=r,
        ))
    return records
