"""Modified moments of Chebyshev polynomials against Jacobi-type weights.

Two weight families on [-1, 1]:

* Jacobi            w(x) = (1-x)^alpha (1+x)^beta
* log-Jacobi        w(x) = ln((x+1)/2) (1-x)^alpha (1+x)^beta

M_k = integral of w T_k (Jacobi) satisfies the homogeneous three-term
recurrence

    (b+a+k+2) M_{k+1} + 2(a-b) M_k + (b+a-k+2) M_{k-1} = 0,

and G_k (log-Jacobi) the inhomogeneous analogue with right-hand side
2 M_k - M_{k-1} - M_{k+1}.  Forward recursion is stable except when the
smaller parameter sits at (or near) a half-odd-integer {-1/2, 1/2, ...};
those cases are solved as a tridiagonal boundary-value system with the
seed value on the left and the large-k asymptotic value on the right.
"""

import enum
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalFailure
from .special import beta as beta_fn
from .special import digamma, phi_combo

__all__ = [
    "WeightKind",
    "WeightSpec",
    "UNIT_WEIGHT",
    "MomentTable",
    "jacobi_moments",
    "log_jacobi_moments",
    "moments_for",
    "moment_asymptotic",
    "min_bar",
]

# Parameters within this distance of a half-odd-integer >= -1/2 use the
# banded solver (forward-recursion error grows continuously, so the exact
# unstable set needs a safety margin around it).
HALF_INTEGER_MARGIN = 0.05

# Right-boundary index for the banded solve.  The leading asymptotic value
# carries a relative correction of order k^-2, so anchoring the boundary at
# k = 1e6 keeps its contribution below ~1e-12.
_ASYMPTOTIC_INDEX = 10**6


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
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
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


def _near_half_odd_integer(x: float) -> bool:
    """True when x lies within the margin of some element of {-1/2, 1/2, 3/2, ...}."""
    nearest = round(x + 0.5) - 0.5
    return nearest >= -0.5 - 1e-12 and abs(x - nearest) <= HALF_INTEGER_MARGIN


def _forward_unstable(alpha: float, beta: float) -> bool:
    return (alpha > beta and _near_half_odd_integer(beta)) or (
        beta > alpha and _near_half_odd_integer(alpha)
    )


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


def _jacobi_asym(alpha: float, beta: float, k) -> float:
    """Leading large-k asymptotic of M_k, both endpoint contributions."""
    k = np.asarray(k, dtype=float)
    sgn = np.where(np.asarray(np.mod(k, 2)) == 0, -1.0, 1.0)  # (-1)^(k+1)
    term_right = -(2.0 ** (beta - alpha)) * math.cos(math.pi * alpha) * math.gamma(
        2.0 * alpha + 2.0
    ) * k ** (-2.0 - 2.0 * alpha)
    term_left = sgn * 2.0 ** (alpha - beta) * math.cos(math.pi * beta) * math.gamma(
        2.0 * beta + 2.0
    ) * k ** (-2.0 - 2.0 * beta)
    return term_right + term_left


def _log_jacobi_asym(alpha: float, beta: float, k) -> float:
    """Leading large-k asymptotic of G_k.

    The left-endpoint factor is evaluated as
    cos(pi b)(-ln 2k + Psi(2b+2)) - (pi/2) sin(pi b), an algebraically
    identical regularization of cos(pi b)[... - (pi/2) tan(pi b)] that
    stays finite at half-odd-integer b.
    """
    k = np.asarray(k, dtype=float)
    sgn = np.where(np.asarray(np.mod(k, 2)) == 0, -1.0, 1.0)
    bracket = math.cos(math.pi * beta) * (
        -np.log(2.0 * k) + digamma(2.0 * beta + 2.0)
    ) - 0.5 * math.pi * math.sin(math.pi * beta)
    term_left = (
        sgn * 2.0 ** (alpha - beta + 1.0) * math.gamma(2.0 * beta + 2.0)
        * k ** (-2.0 - 2.0 * beta) * bracket
    )
    term_right = -(2.0 ** (beta - alpha - 2.0)) * math.cos(math.pi * alpha) * math.gamma(
        2.0 * alpha + 4.0
    ) * k ** (-4.0 - 2.0 * alpha)
    return term_left + term_right


def moment_asymptotic(weight: WeightSpec, k: int) -> float:
    """Leading-order asymptotic moment value, used as the banded-solve
    right boundary and for large-k validation ratios."""
    if k < 1:
        raise ValueError(f"asymptotic form needs k >= 1, got {k}")
    if weight.kind is WeightKind.JACOBI:
        return float(_jacobi_asym(weight.alpha, weight.beta, k))
    return float(_log_jacobi_asym(weight.alpha, weight.beta, k))


def _jacobi_seeds(alpha: float, beta: float) -> tuple[float, float]:
    m0 = 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)
    m1 = m0 * (beta - alpha) / (alpha + beta + 2.0)
    return m0, m1


def _log_seeds(alpha: float, beta: float) -> tuple[float, float]:
    g0 = -(2.0 ** (alpha + beta + 1.0)) * phi_combo(alpha, beta + 1.0)
    g1 = -(2.0 ** (alpha + beta + 1.0)) * (
        2.0 * phi_combo(alpha, beta + 2.0) - phi_combo(alpha, beta + 1.0)
    )
    return g0, g1


def _forward(alpha: float, beta: float, K: int, v0: float, v1: float, rhs) -> np.ndarray:
    """Run the recurrence forward from the two seeds up to index K.

    ``rhs`` is None for the homogeneous (Jacobi) case or an array of
    right-hand sides indexed by k for the log-Jacobi case.
    """
    v = np.empty(K + 1)
    v[0] = v0
    if K >= 1:
        v[1] = v1
    ab_sum = alpha + beta
    two_diff = 2.0 * (alpha - beta)
    for k in range(1, K):
        r = 0.0 if rhs is None else rhs[k]
        v[k + 1] = (r - two_diff * v[k] - (ab_sum - k + 2.0) * v[k - 1]) / (ab_sum + k + 2.0)
    return v


def _banded(alpha: float, beta: float, K_solve: int, v1: float, v_right: float, rhs) -> np.ndarray:
    """Oliver-style tridiagonal solve for v_2..v_{K_solve-1}.

    Rows are the recurrence at k = 2..K_solve-1; the left boundary is the
    seed v_1 and the right boundary the asymptotic value v_{K_solve}.
    Returns the full array v_2..v_{K_solve-1} (callers prepend seeds).
    """
    n_unknown = K_solve - 2
    k_arr = np.arange(2, K_solve, dtype=float)
    ab_sum = alpha + beta
    ab = np.zeros((3, n_unknown))
    ab[1, :] = 2.0 * (alpha - beta)
    ab[0, 1:] = ab_sum + k_arr[:-1] + 2.0  # superdiagonal: coeff of v_{k+1} in row k
    ab[2, :-1] = ab_sum - k_arr[1:] + 2.0  # subdiagonal: coeff of v_{k-1} in row k
    r = np.zeros(n_unknown) if rhs is None else np.array(rhs[2:K_solve], dtype=float)
    r[0] -= (ab_sum - 2.0 + 2.0) * v1
    r[-1] -= (ab_sum + (K_solve - 1.0) + 2.0) * v_right
    return scipy.linalg.solve_banded((1, 1), ab, r, check_finite=False)


def _seed_residual(alpha, beta, v, r1) -> float:
    """Relative residual of the (unused) k = 1 recurrence row, a genuine
    consistency check for the banded solve."""
    ab_sum = alpha + beta
    res = (ab_sum + 3.0) * v[2] + 2.0 * (alpha - beta) * v[1] + (ab_sum + 1.0) * v[0] - r1
    scale = max(
        abs((ab_sum + 3.0) * v[2]),
        abs(2.0 * (alpha - beta) * v[1]),
        abs((ab_sum + 1.0) * v[0]),
        abs(r1),
        1e-300,
    )
    return abs(res) / scale


@functools.lru_cache(maxsize=256)
def _jacobi_values(alpha: float, beta: float, K: int) -> tuple[np.ndarray, str, float]:
    m0, m1 = _jacobi_seeds(alpha, beta)
    if not _forward_unstable(alpha, beta):
        v = _forward(alpha, beta, K, m0, m1, None)
        v.setflags(write=False)
        return v, "forward", 2e-16
    K_solve = max(2 * K, 64, _ASYMPTOTIC_INDEX)
    interior = _banded(
        alpha, beta, K_solve, m1, float(_jacobi_asym(alpha, beta, K_solve)), None
    )
    v = np.concatenate(([m0, m1], interior))
    est = _seed_residual(alpha, beta, v, 0.0)
    v = v[: K + 1].copy()
    v.setflags(write=False)
    return v, "banded", est


@functools.lru_cache(maxsize=256)
def _log_values(alpha: float, beta: float, K: int) -> tuple[np.ndarray, str, float]:
    g0, g1 = _log_seeds(alpha, beta)
    if not _forward_unstable(alpha, beta):
        m = _jacobi_values(alpha, beta, K + 1)[0]
        rhs = 2.0 * m[1:-1] - m[:-2] - m[2:]  # rhs[k-1] = 2 M_k - M_{k-1} - M_{k+1}
        rhs = np.concatenate(([0.0], rhs))
        v = _forward(alpha, beta, K, g0, g1, rhs)
        v.setflags(write=False)
        return v, "forward", 2e-16
    K_solve = max(2 * K, 64, _ASYMPTOTIC_INDEX)
    # The Jacobi prerequisite is solved one index further out so the
    # right-hand side extends far enough without a second banded pass.
    m0, m1 = _jacobi_seeds(alpha, beta)
    m_interior = _banded(
        alpha, beta, K_solve + 1, m1, float(_jacobi_asym(alpha, beta, K_solve + 1)), None
    )
    m = np.concatenate(([m0, m1], m_interior))  # M_0..M_{K_solve}
    rhs = np.zeros(K_solve)
    rhs[1:] = 2.0 * m[1:-1] - m[:-2] - m[2:]  # rhs[k] = 2 M_k - M_{k-1} - M_{k+1}
    interior = _banded(
        alpha, beta, K_solve, g1, float(_log_jacobi_asym(alpha, beta, K_solve)), rhs
    )
    v = np.concatenate(([g0, g1], interior))
    est = _seed_residual(alpha, beta, v, rhs[1])
    v = v[: K + 1].copy()
    v.setflags(write=False)
    return v, "banded", est


def _bucket(K: int) -> int:
    """Round K up to a power of two so nearby requests share one cached solve."""
    b = 64
    while b < K:
        b *= 2
    return b


def jacobi_moments(alpha: float, beta: float, K: int) -> MomentTable:
    """Moments M_0..M_K of T_k against the Jacobi weight (1-x)^alpha (1+x)^beta:
    moments_for with a Jacobi WeightSpec."""
    return moments_for(WeightSpec(WeightKind.JACOBI, alpha, beta), K)


def log_jacobi_moments(alpha: float, beta: float, K: int) -> MomentTable:
    """Moments G_0..G_K of T_k against ln((x+1)/2) (1-x)^alpha (1+x)^beta:
    moments_for with a log-Jacobi WeightSpec.

    The inhomogeneous recurrence consumes Jacobi moments computed in the
    same run, so the two error budgets stay coupled.
    """
    return moments_for(WeightSpec(WeightKind.LOGJACOBI, alpha, beta), K)


def moments_for(weight: WeightSpec, K: int) -> MomentTable:
    """Moments of T_0..T_K against the weight (M_k, or G_k for log-Jacobi).

    Args:
        weight: Jacobi or log-Jacobi weight specification.
        K: largest moment index, an integer (operator.index) K >= 0.

    Returns:
        MomentTable whose ``method`` records whether the forward recurrence
        or the banded boundary-value solve produced the values, and whose
        ``est_rel_error`` is a residual-based consistency estimate.

    Raises:
        NumericalFailure: a seed or boundary value overflows float64.
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
