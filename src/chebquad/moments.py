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
same recurrence in mpmath with guard digits beyond that growth, summed
from the local roots of each step's characteristic equation, then round
once to float64.

Tables are kept by (alpha, beta, K) in two chebcore._Store stores, one per
kind, bounded in table entries; K is rounded up to a power of two, so
nearby requests share one table.  M_k is the same float whatever K it is
read at; the one exception left is an exact zero before the zero tail of a
Jacobi table whose parameters are both half-odd (M_6 of jacobi:2.5:4.5).
"""

import enum
import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .chebcore import _Store
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

# Digits the extended route carries beyond the recurrence's growth.  At 20,
# about one table in fifty with a parameter in 300..700 (K = 64, 256) rounds
# an entry to the other neighbouring float64 than 40 more digits do; at 30,
# none of 3161 such tables did.
GUARD_DIGITS = 30


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


def _cospi(x: float) -> float:
    """cos(pi x), exactly 0 at half-odd x, where math.cos(math.pi * x) is not."""
    return 0.0 if x % 1.0 == 0.5 else math.cos(math.pi * x)


_Term = namedtuple("_Term", "e live log p2 c lc")


def _endpoint_terms(weight: WeightSpec) -> list:
    """The large-k terms of M_k (G_k for log-Jacobi) from x = 1 and x = -1:
    sign 2^p2 (c + lc (Psi(2e+2) - ln 2k)) Gamma(2e+2) k^(-2-2e), with sign
    -1 and (-1)^(k+1).  A term falls like k^(-2-2e), by ln 2k more if ``log``.
    Jacobi: e = alpha, beta and c = cos(pi e), so a half-odd e silences its
    endpoint (not ``live``) to every order.  log-Jacobi: e = alpha+1, c =
    cos(pi alpha); and e = beta, c = -(pi/2) sin(pi b), lc = cos(pi b), which
    regularizes cos(pi b)[... - (pi/2) tan(pi b)] and is live at every b.
    """
    a, b = weight.alpha, weight.beta
    if weight.kind is WeightKind.JACOBI:
        terms = (a, b - a, _cospi(a), 0.0), (b, a - b, _cospi(b), 0.0)
    else:
        terms = ((a + 1.0, b - a - 2.0, _cospi(a), 0.0),
                 (b, a - b + 1.0, -0.5 * math.pi * math.sin(math.pi * b), _cospi(b)))
    return [_Term(e, c != 0.0 or lc != 0.0, lc != 0.0, p2, c, lc) for e, p2, c, lc in terms]


def min_bar(alpha: float, beta: float) -> float:
    """Effective decay parameter of the Jacobi moments, |M_k| ~ k^(-2-2*min_bar):
    the smallest live endpoint exponent, exactly (min_bar(-0.5, 0.2) == 0.2),
    as a half-odd exponent silences its endpoint to every order.  When both
    do, the moments end at a finite k and the placeholder 0.0 is returned.
    """
    terms = _endpoint_terms(WeightSpec(WeightKind.JACOBI, alpha, beta))
    return min((t.e for t in terms if t.live), default=0.0)


def moment_asymptotic(weight: WeightSpec, k: int) -> float:
    """Leading-order large-k value of M_k (G_k for log-Jacobi), for large-k
    validation ratios: the sum of the live terms of _endpoint_terms, 0 where
    both are silent.  k must be an integer (operator.index).
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"asymptotic form needs k >= 1, got {k}")
    signs = (-1.0, 1.0 if k % 2 else -1.0)  # (-1)^(k+1) at x = -1
    return sum((sign * 2.0**t.p2 * (t.c + t.lc * (digamma(2.0 * t.e + 2.0) - math.log(2.0 * k)))
                * math.gamma(2.0 * t.e + 2.0) * k ** (-2.0 - 2.0 * t.e)
                for sign, t in zip(signs, _endpoint_terms(weight)) if t.live), 0.0)


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


def _growth(alpha: float, beta: float, K: int) -> float:
    """log10 of how much steps k = 1..K-1 of the recurrence amplify its
    dominant solution over the wanted one (Gautschi, SIAM Rev. 9, 1967).

    Step k's characteristic equation (s+k+2) l^2 + 2(alpha-beta) l + (s-k+2)
    = 0, s = alpha+beta, has complex roots of one modulus while k^2 <
    4(alpha+1)(beta+1), and real ones beyond, whose ratio is (d+r)/|d-r| =
    (d+r)^2 / |(s+2)^2 - k^2| with d = |alpha-beta| and r = sqrt(k^2 -
    4(alpha+1)(beta+1)).  At k = s+2 (r = d) the M_{k-1} coefficient
    vanishes: the step sets M_{k+1}/M_k alike for every solution, so it
    adds no growth.
    """
    s2 = alpha + beta + 2.0
    k = np.arange(1.0, K)
    r2 = k * k - 4.0 * (alpha + 1.0) * (beta + 1.0)
    real = (r2 > 0.0) & (k != s2)
    k, r = k[real], np.sqrt(r2[real])
    return float(np.sum(2.0 * np.log10(abs(alpha - beta) + r) - np.log10(np.abs(s2 - k) * (s2 + k))))


def _values(alpha: float, beta: float, K: int, log: bool) -> tuple[np.ndarray, str, float]:
    """M_0..M_K (G_0..G_K when log), the route that made them and its error bound.

    Off the unstable set the recurrence runs in float64 (from seeds formed
    in mpf where 2^(alpha+beta+1) overflows float64).  On it, the wanted
    solution decays faster than the other one by the factor 10^_growth,
    so the same recurrence runs in mpmath with GUARD_DIGITS digits beyond
    that growth and the table is rounded once to float64.
    """
    if _forward_unstable(alpha, beta):
        growth = _growth(alpha, beta, K)
        digits = GUARD_DIGITS + math.ceil(growth)
        with mp.workdps(digits):
            v = _table(mp.mpf(alpha), mp.mpf(beta), K, log, _mp_seeds)
        if not log and _cospi(alpha) == _cospi(beta) == 0.0:
            # w is a degree alpha+beta+1 polynomial over sqrt(1-x^2): M_k = 0 beyond
            v[round(alpha + beta) + 2:] = 0.0
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


# _values(alpha, beta, K, log) by (alpha, beta, K), one store per kind, each
# bounded in table entries: 2^21 is 16 MB, two tables at K = 10^6.
_MOMENT_STORE_ENTRIES = 1 << 21
_jacobi_values = _Store(_MOMENT_STORE_ENTRIES, lambda entry: len(entry[0]))
_log_values = _Store(_MOMENT_STORE_ENTRIES, lambda entry: len(entry[0]))


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
    log = weight.kind is WeightKind.LOGJACOBI
    store = _log_values if log else _jacobi_values
    try:
        [(values, method, est)] = store.get(
            [(weight.alpha, weight.beta, 1 << max(6, (K - 1).bit_length()))],
            lambda keys: {key: _values(*key, log) for key in keys})
    except OverflowError as exc:
        raise NumericalFailure(f"moments of weight={weight} overflow float64") from exc
    return MomentTable(weight, K, values[: K + 1], method, est)
