"""Modified moments of Chebyshev polynomials against Jacobi-type weights.

Two weight families on [-1, 1]:

* Jacobi            w(x) = (1-x)^alpha (1+x)^beta
* log-Jacobi        w(x) = ln((x+1)/2) (1-x)^alpha (1+x)^beta

M_k = integral of w T_k (Jacobi) satisfies the homogeneous three-term
recurrence

    (b+a+k+2) M_{k+1} + 2(a-b) M_k + (b+a-k+2) M_{k-1} = 0,

and G_k (log-Jacobi) the inhomogeneous analogue with right-hand side
2 M_k - M_{k-1} - M_{k+1}.  Every table runs this recurrence forward from
its two closed-form seeds.  When the smaller parameter sits at (or near) a
half-odd integer {-1/2, 1/2, ...}, the wanted solution decays faster than
the other one, which forward recursion amplifies; those tables run the
same recurrence in mpmath with enough guard digits to absorb the growth,
then round once to float64.
"""

import enum
import functools
import math
import operator
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import NumericalFailure
from .special import beta as beta_fn
from .special import digamma

__all__ = [
    "WeightKind",
    "WeightSpec",
    "UNIT_WEIGHT",
    "MomentTable",
    "moments_for",
    "moment_asymptotic",
    "min_bar",
]

# Parameters within this distance of a half-odd-integer >= -1/2 run the
# recurrence in extended precision (forward-recursion error grows
# continuously, so the exact unstable set needs a safety margin around it).
HALF_INTEGER_MARGIN = 0.05


class WeightKind(str, enum.Enum):
    JACOBI = "jacobi"
    LOGJACOBI = "logjacobi"


@dataclass(frozen=True)
class WeightSpec:
    """Integrand weight: Jacobi or log-Jacobi with finite parameters alpha, beta > -1."""

    kind: WeightKind
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "kind", WeightKind(self.kind))
        # + 0.0 makes -0.0 into 0.0, which compares and hashes equal to it,
        # so a moment cache entry never depends on which sign came first.
        object.__setattr__(self, "alpha", float(self.alpha) + 0.0)
        object.__setattr__(self, "beta", float(self.beta) + 0.0)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(
                f"weight parameters must be finite, got alpha={self.alpha}, beta={self.beta}"
            )
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"weight parameters must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )

    def __call__(self, x):
        """Evaluate the weight function at x in (-1, 1)."""
        x = np.asarray(x, dtype=float)
        w = (1.0 - x) ** self.alpha * (1.0 + x) ** self.beta
        if self.kind is WeightKind.LOGJACOBI:
            w = w * np.log((1.0 + x) / 2.0)
        return w


UNIT_WEIGHT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)


@dataclass(frozen=True)
class MomentTable:
    weight: WeightSpec
    K: int
    values: np.ndarray = field(repr=False)
    method: str = "forward"
    est_rel_error: float = 0.0


def _forward_unstable(alpha: float, beta: float) -> bool:
    """True when alpha != beta and the smaller is within the margin of {-1/2, 1/2, 3/2, ...}."""
    smaller = min(alpha, beta)
    nearest = round(smaller + 0.5) - 0.5
    near = nearest >= -0.5 - 1e-12 and abs(smaller - nearest) <= HALF_INTEGER_MARGIN
    return alpha != beta and near


def min_bar(alpha: float, beta: float) -> float:
    """Effective decay parameter of |M_k|: the moments fall off like
    k^(-2 - 2*min_bar).

    An exponent sitting exactly at -1/2 kills its own endpoint's
    contribution (the cosine prefactor vanishes), so the *other*
    parameter takes over; when both sit at -1/2 every moment beyond the
    first is zero and the value 0 is returned as a placeholder.
    """
    if alpha == -0.5 and beta == -0.5:
        return 0.0
    if alpha == -0.5:
        return beta
    if beta == -0.5:
        return alpha
    return min(alpha, beta)


def _cospi(x: float) -> float:
    """cos(pi x), exactly 0 at half-odd x, where math.cos(math.pi * x) is not."""
    return 0.0 if x % 1.0 == 0.5 else math.cos(math.pi * x)


def moment_asymptotic(weight: WeightSpec, k: int) -> float:
    """Leading-order large-k value of M_k (G_k for log-Jacobi), both endpoint
    contributions, for large-k validation ratios.

    A parameter at a half-odd integer contributes nothing at this order.
    The log-Jacobi left-endpoint factor is evaluated as
    cos(pi b)(-ln 2k + Psi(2b+2)) - (pi/2) sin(pi b), an algebraically
    identical regularization of cos(pi b)[... - (pi/2) tan(pi b)] that
    stays finite at half-odd-integer b.  k must be an integer
    (operator.index).
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"asymptotic form needs k >= 1, got {k}")
    a, b = weight.alpha, weight.beta
    sgn = 1.0 if k % 2 else -1.0  # (-1)^(k+1)
    if weight.kind is WeightKind.JACOBI:
        right = -(2.0 ** (b - a)) * _cospi(a) * math.gamma(2.0 * a + 2.0) * k ** (-2.0 - 2.0 * a)
        left = sgn * 2.0 ** (a - b) * _cospi(b) * math.gamma(2.0 * b + 2.0) * k ** (-2.0 - 2.0 * b)
        return right + left
    bracket = _cospi(b) * (digamma(2.0 * b + 2.0) - math.log(2.0 * k)) - 0.5 * math.pi * math.sin(
        math.pi * b
    )
    left = sgn * 2.0 ** (a - b + 1.0) * math.gamma(2.0 * b + 2.0) * k ** (-2.0 - 2.0 * b) * bracket
    right = -(2.0 ** (b - a - 2.0)) * _cospi(a) * math.gamma(2.0 * a + 4.0) * k ** (-4.0 - 2.0 * a)
    return left + right


def _seeds(alpha, beta, log: bool, beta_fn, psi) -> tuple:
    """The closed forms of M_0, M_1 (G_0, G_1 when log), in the arithmetic
    of the arguments: float64 with special.beta and special.digamma, or
    mpf at mpmath's working precision with mp.beta and mp.digamma."""
    scale = 2 ** (alpha + beta + 1)
    if not log:
        m0 = scale * beta_fn(alpha + 1, beta + 1)
        return m0, m0 * (beta - alpha) / (alpha + beta + 2)

    def phi(c):  # B(alpha+1, c) [Psi(alpha+c+1) - Psi(c)]
        return beta_fn(alpha + 1, c) * (psi(alpha + c + 1) - psi(c))

    first = phi(beta + 1)
    return -scale * first, -scale * (2 * phi(beta + 2) - first)


def _forward(alpha, beta, K: int, v0, v1, m=None) -> list:
    """Run the recurrence forward from the two seeds up to index K, in the
    arithmetic of the arguments (float or mpf).

    ``m`` is None for the homogeneous (Jacobi) case, or the table
    M_0..M_K whose combination 2 M_k - M_{k-1} - M_{k+1} drives the
    log-Jacobi case.
    """
    v = [v0, v1][: K + 1]
    ab_sum = alpha + beta
    two_diff = 2 * (alpha - beta)
    for k in range(1, K):
        r = 0 if m is None else 2 * m[k] - m[k - 1] - m[k + 1]
        v.append((r - two_diff * v[k] - (ab_sum - k + 2) * v[k - 1]) / (ab_sum + k + 2))
    return v


_mp_seeds = functools.partial(_seeds, beta_fn=mp.beta, psi=mp.digamma)


def _float_seeds(alpha: float, beta: float, log: bool) -> tuple:
    """_seeds in float64, or, where 2^(alpha+beta+1) overflows float64 (the
    seeds themselves may not), in mpf at 34 digits, each rounded once."""
    try:
        return _seeds(alpha, beta, log, beta_fn, digamma)
    except OverflowError:
        with mp.workdps(34):
            return tuple(map(float, _mp_seeds(mp.mpf(alpha), mp.mpf(beta), log)))


def _table(alpha, beta, K: int, log: bool, seeds) -> np.ndarray:
    """M_0..M_K (G_0..G_K when log) run in the arithmetic of the arguments
    from seeds(alpha, beta, log), as float64."""
    m = _forward(alpha, beta, K, *seeds(alpha, beta, False))
    v = _forward(alpha, beta, K, *seeds(alpha, beta, True), m) if log else m
    return np.array(v, dtype=float)


def _values(alpha: float, beta: float, K: int, log: bool) -> tuple[np.ndarray, str, float]:
    """M_0..M_K (G_0..G_K when log), the route that made them and its error bound.

    Off the unstable set the recurrence runs in float64 (from seeds formed
    in mpf where 2^(alpha+beta+1) overflows float64).  On it, the wanted
    solution decays faster than the other one by up to a factor
    (K+2)^(2|alpha-beta|), so the same recurrence runs in mpmath with 20
    digits beyond log10 of that factor and the table is rounded once to
    float64.
    """
    if _forward_unstable(alpha, beta):
        growth = 2.0 * abs(alpha - beta) * math.log10(K + 2)
        digits = 20 + math.ceil(growth)
        with mp.workdps(digits):
            v = _table(mp.mpf(alpha), mp.mpf(beta), K, log, _mp_seeds)
        # float64 rounding plus K steps of working-precision error grown by 10^growth
        method, est = "extended", 2.0**-53 + 10.0 ** (math.log10(K) + growth - digits)
    else:
        v = _table(alpha, beta, K, log, _float_seeds)
        method, est = "forward", 2e-16
    # every entry: |M_k| <= |M_0| holds for the exact moments, but the
    # float64 recurrence's products can overflow first
    if not np.all(np.isfinite(v)):
        raise OverflowError("moment table beyond float64")
    v.setflags(write=False)
    return v, method, est


@functools.lru_cache(maxsize=256)
def _jacobi_values(alpha: float, beta: float, K: int) -> tuple[np.ndarray, str, float]:
    return _values(alpha, beta, K, False)


@functools.lru_cache(maxsize=256)
def _log_values(alpha: float, beta: float, K: int) -> tuple[np.ndarray, str, float]:
    return _values(alpha, beta, K, True)


def _bucket(K: int) -> int:
    """Round K up to a power of two so nearby requests share one cached table."""
    b = 64
    while b < K:
        b *= 2
    return b


def moments_for(weight: WeightSpec, K: int) -> MomentTable:
    """Moments of T_0..T_K against the weight (M_k, or G_k for log-Jacobi).

    Args:
        weight: Jacobi or log-Jacobi weight specification.
        K: largest moment index, an integer (operator.index) K >= 0.

    Returns:
        MomentTable whose ``method`` records whether the recurrence ran in
        float64 ("forward") or in mpmath rounded once to float64
        ("extended"), and whose ``est_rel_error`` is that route's relative
        error estimate.

    Raises:
        ValueError: K is negative.
        NumericalFailure: a seed or a moment overflows float64.
    """
    K = operator.index(K)
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    values_of = _jacobi_values if weight.kind is WeightKind.JACOBI else _log_values
    try:
        values, method, est = values_of(weight.alpha, weight.beta, _bucket(K))
    except OverflowError as exc:
        raise NumericalFailure(f"moments of weight={weight} overflow float64") from exc
    return MomentTable(weight, K, values[: K + 1], method, est)
