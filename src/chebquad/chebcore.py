"""Chebyshev point sets and the transforms that turn moments into rule weights.

The three point families:

* Fejer-1: zeros of T_n,   y_j = cos((2j-1)pi/(2n)),  j = 1..n
* Fejer-2: zeros of U_n,   x_j = cos(j pi/(n+1)),     j = 1..n
* Clenshaw-Curtis: extrema of T_{n-1} including the endpoints,
  xbar_j = cos(j pi/(n-1)), j = 0..n-1  (requires n >= 2)

On each grid the interpolatory rule satisfies

    sum_i w_i f(x_i) = sum_j b_j(f) m_j,

with b_j the coefficients (plain sum, q = sum b_j T_j) of the polynomial
interpolating f on the grid and m_j the modified moments.  interp_weights
gives the w_i: the transpose of the coefficient transform applied to m,
realized by the DCT/DST that matches the grid.  Expansion coefficients
a_j follow the primed convention (first term halved):
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

    Accepts a scalar or array ``x`` with |x| <= 1 (a 1e-14 slack is
    clamped; anything beyond raises).
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    vals = np.cos(j * np.arccos(np.clip(arr, -1.0, 1.0)))
    return float(vals) if np.isscalar(x) or arr.ndim == 0 else vals


def _check_grid(family: Family, n: int) -> tuple[Family, int]:
    """(family, n) of an n-point Chebyshev grid, n an integer (operator.index)."""
    family = Family(family)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"Chebyshev point sets only, got {family}")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if family is Family.CLENSHAW_CURTIS and n < 2:
        raise ValueError("Clenshaw-Curtis needs n >= 2")
    return family, n


def _angles(family: Family, n: int) -> np.ndarray:
    """Grid angles theta with points = cos(theta), in point order."""
    if family is Family.FEJER1:
        return (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    if family is Family.FEJER2:
        return np.arange(1, n + 1) * np.pi / (n + 1.0)
    return np.arange(n) * np.pi / (n - 1.0)


def make_points(family: Family, n: int) -> np.ndarray:
    """The n points of a Chebyshev family, in decreasing order.

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        n: number of points (n >= 1; Clenshaw-Curtis needs n >= 2).
    """
    family, n = _check_grid(family, n)
    pts = np.cos(_angles(family, n))
    if family is Family.CLENSHAW_CURTIS:
        # pin the endpoints exactly
        pts[0] = 1.0
        pts[-1] = -1.0
        if n % 2 == 1:
            pts[(n - 1) // 2] = 0.0
    return pts


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
    if m.ndim != 1:
        raise ValueError("moments must be a 1-D array")
    family, n = _check_grid(family, len(m))
    if family is Family.FEJER1:
        return scipy.fft.dct(m, type=3) / n
    if family is Family.CLENSHAW_CURTIS:
        w = scipy.fft.dct(m, type=1) / (n - 1)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w
    theta = _angles(family, n)
    return np.sin(theta) * scipy.fft.dst(_fejer2_moment_fold(m), type=1) / (n + 1.0)


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
