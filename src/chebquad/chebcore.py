"""Chebyshev point sets and the transforms that turn moments into rule weights.

The three point families:

* Fejer-1: zeros of T_n,   y_j = cos((2j-1)pi/(2n)),  j = 1..n
* Fejer-2: zeros of U_n,   x_j = cos(j pi/(n+1)),     j = 1..n
* Clenshaw-Curtis: extrema of T_{n-1} including the endpoints,
  xbar_j = cos(j pi/(n-1)), j = 0..n-1  (requires n >= 2)

On each grid the interpolatory rule satisfies

    sum_i w_i f(x_i) = sum_j b_j(f) m_j,

with b_j the coefficients (plain sum, q = sum b_j T_j) of the polynomial
interpolating f on the grid and m_j the modified moments.  interp_rules
gives the x_i and w_i of many grids from one moment vector: w is the
transpose of the coefficient transform applied to m, one DCT/DST per
grid, while one cos (and sin) runs over the angles of all the grids.
make_points and interp_weights are its one-grid case.  Expansion
coefficients a_j follow the primed convention (first term halved):
f = a_0/2 + sum_{j>=1} a_j T_j.
"""

import enum
import operator

import numpy as np
import scipy.fft

__all__ = [
    "Family",
    "CHEBYSHEV_FAMILIES",
    "chebyshev_T",
    "make_points",
    "interp_rules",
    "interp_weights",
    "cheb_expansion_coeffs",
]


class Family(str, enum.Enum):
    """Quadrature/point-set family tags shared across the package."""

    FEJER1 = "fejer1"
    FEJER2 = "fejer2"
    CLENSHAW_CURTIS = "clenshaw-curtis"
    GAUSS_LEGENDRE = "gauss-legendre"


CHEBYSHEV_FAMILIES = (Family.FEJER1, Family.FEJER2, Family.CLENSHAW_CURTIS)


def chebyshev_T(j: int, x):
    """T_j(x) = cos(j arccos x), evaluated trigonometrically.

    j is an integer (operator.index).  Accepts a scalar or array ``x``
    with |x| <= 1 (a 1e-14 slack is clamped; anything beyond raises).
    """
    j = operator.index(j)
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    vals = np.cos(j * np.arccos(np.clip(arr, -1.0, 1.0)))
    return float(vals) if np.isscalar(x) or arr.ndim == 0 else vals


def make_points(family: Family, n: int) -> np.ndarray:
    """The n points of a Chebyshev family, in decreasing order: interp_rules
    with one grid (n >= 1; Clenshaw-Curtis needs n >= 2)."""
    n = operator.index(n)
    return interp_rules(family, (n,), np.zeros(max(n, 0)))[0]


def _fejer2_moment_fold(m: np.ndarray) -> np.ndarray:
    """Forward parity cumsums turning T-basis moments into U-basis moments:
    ubar_k = integral of w U_k = 2(m_k + m_{k-2} + ...) with m_0 once.
    Sequential sums make it prefix-consistent: fold(m)[:n] == fold(m[:n])."""
    n = len(m)
    u = np.zeros(n)
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        u[idx] = 2.0 * np.cumsum(m[idx])
    u[::2] -= m[:1]  # m_0, and nothing when m is empty
    return u


# The transform of each family's moments (the Fejer-2 ones folded first)
_TRANSFORMS = {Family.FEJER1: (scipy.fft.dct, 3), Family.CLENSHAW_CURTIS: (scipy.fft.dct, 1),
               Family.FEJER2: (scipy.fft.dst, 1)}


def interp_rules(family: Family, ns, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points and weights of the interpolatory rules on the grids of every n in ns.

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        ns: grid sizes, integers (operator.index) n >= 1 (Clenshaw-Curtis
            n >= 2), in any order, repeats allowed.
        m: modified moments m_0..m_K, m_j = integral of w T_j, with
            K >= max(ns) - 1; the n-point rule takes m_0..m_{n-1}.

    Returns:
        (points, weights, bounds), the rules concatenated in the order of
        ns, rule i at [bounds[i], bounds[i+1]), each equal to
        make_points(family, n) and interp_weights(family, m[:n]) bit for bit.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 1:
        raise ValueError("moments must be a 1-D array")
    family = Family(family)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"Chebyshev point sets only, got {family}")
    ns = [operator.index(n) for n in ns]
    for n in ns:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if family is Family.CLENSHAW_CURTIS and n < 2:
            raise ValueError("Clenshaw-Curtis needs n >= 2")
    top = max(ns, default=0)
    if len(m) < top:
        raise ValueError(f"{top}-point rules need {top} moments, got {len(m)}")
    bounds = np.cumsum([0, *ns])  # grid i at [bounds[i], bounds[i+1])
    first, last = bounds[:-1], bounds[1:] - 1
    sizes = np.repeat(np.asarray(ns, dtype=float), ns)
    j = np.arange(bounds[-1]) - np.repeat(first, ns)  # 0..n-1 in each grid
    if family is Family.FEJER1:
        theta = (2.0 * (j + 1) - 1.0) * np.pi / (2.0 * sizes)
    elif family is Family.FEJER2:
        theta = (j + 1) * np.pi / (sizes + 1.0)
        m = _fejer2_moment_fold(m[:top])
    else:
        theta = j * np.pi / (sizes - 1.0)
    transform, kind = _TRANSFORMS[family]
    w = np.empty(bounds[-1])
    for n, a, b in zip(ns, bounds.tolist(), bounds[1:].tolist()):
        w[a:b] = transform(m[:n], type=kind)
    if family is Family.FEJER1:
        w /= sizes
    elif family is Family.CLENSHAW_CURTIS:
        w /= sizes - 1.0
        w[first] *= 0.5
        w[last] *= 0.5
    else:
        w = np.sin(theta) * w / (sizes + 1.0)
    points = np.cos(theta)
    if family is Family.CLENSHAW_CURTIS:  # pin the ends, and odd n's midpoint, exactly
        points[first], points[last] = 1.0, -1.0
        points[((first + last) // 2)[(last - first) % 2 == 0]] = 0.0
    return points, w, bounds


def interp_weights(family: Family, m) -> np.ndarray:
    """Weights of the interpolatory rule on make_points(family, len(m)).

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        m: modified moments m_0..m_{n-1}, m_j = integral of w T_j.

    Returns:
        w with sum_i w_i f(x_i) = sum_j b_j(f) m_j for every f, b_j(f)
        being the coefficients of the polynomial interpolating f at the
        points: a DCT-III of m (Fejer-1), a DCT-I (Clenshaw-Curtis), or a
        DST-I of the U-basis moments times sin(theta) (Fejer-2).
    """
    m = np.asarray(m, dtype=float)
    return interp_rules(family, m.shape[:1], m)[1]  # no n when m is not 1-D


def cheb_expansion_coeffs(f, count: int, oversample: int) -> np.ndarray:
    """Leading Chebyshev expansion coefficients a_0..a_{count-1} of f.

    Approximates a_j = (2/pi) * integral of f(x) T_j(x) / sqrt(1-x^2)
    by an `oversample`-point Gauss-Chebyshev discretization (a DCT of f
    at Fejer-1 points).  Coefficients are primed-convention: the series
    reads f = a_0/2 + sum_{j>=1} a_j T_j.  Accuracy is limited by the
    aliasing of coefficients beyond `oversample`.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if oversample < 4 * count:
        raise ValueError(f"oversample must be >= 4*count = {4 * count}, got {oversample}")
    fv = np.asarray(f(make_points(Family.FEJER1, oversample)), dtype=float)
    a = scipy.fft.dct(fv, type=2) / oversample
    return a[:count].copy()
