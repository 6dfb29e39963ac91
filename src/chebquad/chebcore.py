"""Chebyshev point sets and the transforms that turn moments into rule weights.

The three point families, with their half-periods K:

* Fejer-1: zeros of T_n,   y_j = cos((2j-1)pi/(2n)),  j = 1..n,   K = n
* Fejer-2: zeros of U_n,   x_j = cos(j pi/(n+1)),     j = 1..n,   K = n+1
* Clenshaw-Curtis: extrema of T_{n-1} including the endpoints,
  xbar_j = cos(j pi/(n-1)), j = 0..n-1,                          K = n-1

so T_{2pK +- j} takes the grid values of +-T_j (K = 2n+1 folds the
Gauss-Legendre errors alike).  _HALF_PERIOD holds K for all four families,
and _checked_ns, the package's one n check, asks n >= 1 and K >= 1.

On each grid the interpolatory rule satisfies

    sum_i w_i f(x_i) = sum_j b_j(f) m_j,

with b_j the coefficients (plain sum, q = sum b_j T_j) of the polynomial
interpolating f on the grid and m_j the modified moments.  interp_rules
gives the x_i and w_i of many grids from one moment vector: w is the
transpose of the coefficient transform applied to m, one DCT/DST per
grid, divided by the grid's K in the same loop.  _grid_store keeps each
chunk of grids by (family, ns), read-only, for make_points and every
later interp_rules call: the points, one cos over the chunk's angles, and the
transform's input at each point, computed once with them (Fejer-1's
DCT-III twiddles, Fejer-2's sin(theta)).  Expansion coefficients a_j
follow the primed convention (first term halved):
f = a_0/2 + sum_{j>=1} a_j T_j; cheb_expansion_coeffs takes them from
the DCT-I kernel of the Clenshaw-Curtis weights.  _sample is the one
place that evaluates an integrand, vectorized or scalar-only.

The three real transforms (DCT-I, DST-I, DCT-III, unnormalized as in
scipy.fft) run on numpy.fft.rfft and follow the algorithms of pocketfft,
the FFT library inside both numpy.fft and scipy.fft, step for step: the
same real FFT of the same input, the same pre- and post-passes and the
same twiddle factors.  So every weight is bit for bit what scipy.fft
gives, without importing scipy.  _grid_store is a _Store, the package's
one bounded least-recently-used store, which also keeps the rules
module's Gauss-Legendre rules and weighted sweep chunks.
"""

import collections
import enum
import math
import operator
import threading
from typing import Callable

import numpy as np

__all__ = [
    "Family",
    "CHEBYSHEV_FAMILIES",
    "chebyshev_T",
    "make_points",
    "interp_rules",
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
    with |x| <= 1 (a 1e-14 slack is clamped; anything beyond, or NaN, raises).
    """
    j = operator.index(j)
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1] or NaN")
    vals = np.cos(j * np.arccos(np.clip(arr, -1.0, 1.0)))
    return float(vals) if np.isscalar(x) or arr.ndim == 0 else vals


# The half-period K = a n + b of each family's n-point rule, as (a, b)
_HALF_PERIOD = {Family.FEJER1: (1, 0), Family.FEJER2: (1, 1),
                Family.CLENSHAW_CURTIS: (1, -1), Family.GAUSS_LEGENDRE: (2, 1)}


def _checked_ns(family: Family, ns) -> tuple[Family, list[int], list[int]]:
    """The family, ns as ints (operator.index: NumPy integers pass, 2.7
    raises TypeError) and their half-periods K; raises ValueError unless
    every n >= 1 and K >= 1 (so Clenshaw-Curtis needs n >= 2)."""
    family = Family(family)
    a, b = _HALF_PERIOD[family]
    least = max(1, (a - b) // a)  # the least n with a n + b >= 1
    ns = [operator.index(n) for n in ns]
    for n in ns:
        if n < least:
            raise ValueError(f"n must be positive, got {n}" if least == 1
                             else f"n must be >= {least}, got {n}")
    return family, ns, [a * n + b for n in ns]


def _grids(family: Family, ns) -> tuple[np.ndarray, np.ndarray]:
    """The points cos(theta) of the grids of the checked ns of a Chebyshev
    family, concatenated, and the input of its transform at each point,
    computed with them: Fejer-1's _build_twiddle(n) per grid, Fejer-2's
    sin(theta), none for Clenshaw-Curtis.  Both read-only."""
    a, b = _HALF_PERIOD[family]
    half = np.repeat(np.asarray([a * n + b for n in ns], dtype=float), ns)
    j = np.arange(len(half)) - np.repeat(np.cumsum([0, *ns])[:-1], ns)  # 0..n-1 in each grid
    theta = (j + (b + 1) / 2) * np.pi / half  # offset (K - n + 1) / 2: symmetric about pi/2
    points = np.cos(theta)
    if family is Family.FEJER1:
        inputs = np.concatenate([theta[:0], *map(_build_twiddle, ns)])
    elif family is Family.FEJER2:
        inputs = np.sin(theta)
    else:  # pin the ends, and odd n's midpoint, exactly
        inputs, bounds = theta[:0], np.cumsum([0, *ns])
        first, last = bounds[:-1], bounds[1:] - 1
        points[first], points[last] = 1.0, -1.0
        points[((first + last) // 2)[(last - first) % 2 == 0]] = 0.0
    points.setflags(write=False)
    inputs.setflags(write=False)
    return points, inputs


def _chunk_grids(family: Family, ns) -> tuple:
    """The family, checked ns, their K, their (points, inputs) from _grid_store and bounds."""
    family, ns, ks = _checked_ns(family, ns)
    if family not in CHEBYSHEV_FAMILIES:
        raise ValueError(f"Chebyshev point sets only, got {family}")
    [grid] = _grid_store.get([(family, tuple(ns))], lambda keys: {k: _grids(*k) for k in keys})
    return family, ns, ks, grid, np.cumsum([0, *ns])  # grid i at [bounds[i], bounds[i+1])


def make_points(family: Family, n: int) -> np.ndarray:
    """The n points of a Chebyshev family, read-only, in decreasing order, as
    interp_rules places them (n >= 1; Clenshaw-Curtis needs n >= 2)."""
    return _chunk_grids(family, (n,))[3][0]


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


# pi as pocketfft spells it, rounded to long double, for the twiddle angles
_PI_LONG = np.longdouble("3.141592653589793238462643383279502884197")


def _build_twiddle(n: int) -> np.ndarray:
    """tw[i] = cos(2 pi (i+1) / 4n), i = 0..n-1, as pocketfft's sincos_2pibyn(4n)
    forms it: root x = e^(2 pi i x / 4n) is the product of an entry of two
    tables of about sqrt(2n) roots each, and a table's root comes from the
    C library's cos and sin of 8x (or 8n - 8x, its first-octant mirror)
    times pi/4 / 4n, that step rounded from long double."""
    n4 = 4 * n
    ang = float(np.longdouble(0.25) * _PI_LONG / np.longdouble(n4))
    shift = 1
    while 1 << (2 * shift) < 2 * n + 1:
        shift += 1
    size = 1 << shift
    low = min(size, n + 1)  # v1[x] for x < size, then v2[j] at x = j * size; x <= n
    re, im = [], []
    for x in (*range(low), *range(0, n + 1, size)):
        x8 = 8 * x
        if x8 < n4:
            re.append(math.cos(x8 * ang))
            im.append(math.sin(x8 * ang))
        elif x8 < 2 * n4:
            re.append(math.sin((2 * n4 - x8) * ang))
            im.append(math.cos((2 * n4 - x8) * ang))
        else:  # x = n, a quarter turn: (-sin 0, cos 0)
            re.append(-0.0)
            im.append(1.0)
    re, im = np.array(re), np.array(im)
    # root x = v1[x % size] * v2[x // size]; the real part of the product
    table = np.multiply.outer(re[low:], re[:low]) - np.multiply.outer(im[low:], im[:low])
    return table.ravel()[1:n + 1]


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Store:
    """Values by key, bounded in total size: once the values kept add up
    to more than ``max_size``, each counted as ``size(value)``, the least
    recently used go.

    cache_info() counts every key looked up as one hit or one miss, as
    functools.lru_cache does; its maxsize and currsize are in size units.
    """

    def __init__(self, max_size: int, size: Callable = len):
        self.max_size = max_size
        self._size = size
        self._lock = threading.Lock()
        self.cache_clear()

    def get(self, keys: list, build: Callable[[list], dict]) -> list:
        """The values for keys, in order; build(missing keys) makes the
        missing ones in one call and returns them by key."""
        with self._lock:
            found = {key: self._values.get(key) for key in keys}
            missing = []
            for key, value in found.items():
                if value is None:
                    missing.append(key)
                else:
                    self._values.move_to_end(key)
            self._misses += len(missing)
            self._hits += len(keys) - len(missing)
        built = build(missing) if missing else {}
        found.update(built)
        with self._lock:
            for key in missing:
                if key not in self._values:
                    self._values[key] = built[key]
                    self._total += self._size(built[key])
            while self._total > self.max_size:
                self._total -= self._size(self._values.popitem(last=False)[1])
        return [found[key] for key in keys]

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.max_size, self._total)

    def cache_clear(self) -> None:
        with self._lock:
            self._values: collections.OrderedDict = collections.OrderedDict()
            self._total = self._hits = self._misses = 0


# _grids(family, ns) by (family, tuple(ns)), bounded in points.  One n = 100..1000
# family sweep has 495 550 points, 4 MB, and as many twiddles or sines, 4 MB more.
_grid_store = _Store(1 << 19, lambda grid: len(grid[0]))


def _dct1(c: np.ndarray) -> np.ndarray:
    """scipy.fft.dct(c, type=1), len(c) >= 2: the real FFT of the even extension."""
    return np.fft.rfft(np.concatenate((c, c[-2:0:-1]))).real


def _dst1(c: np.ndarray) -> np.ndarray:
    """scipy.fft.dst(c, type=1): the real FFT of the odd extension [0, c, 0, -c reversed]."""
    n = len(c)
    t = np.empty(2 * n + 2)
    t[0] = t[n + 1] = c[0] * 0.0  # pocketfft's zero, signed like c[0]
    t[1:n + 1] = c
    np.negative(c[::-1], out=t[n + 2:])
    return -np.fft.rfft(t).imag[1:n + 1]


def _dct3(c: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """scipy.fft.dct(c, type=3): pocketfft's type-3 pass, the type-2 one reversed.

    For k = 1..(n+1)/2-1 and kc = n-k, (c_k, c_kc) become
    (tw_{k-1} t2 + tw_{kc-1} t1, tw_{k-1} t1 - tw_{kc-1} t2) with
    t1 = c_k + c_kc and t2 = c_k - c_kc, and an even n's middle term is
    scaled by 2 tw_{n/2-1}; then the real FFT, read in halfcomplex order
    [R_0, R_1, I_1, R_2, ...], turns each pair (R_k, I_k) into
    (R_k - I_k, I_k + R_k).  tw is _build_twiddle(len(c)); c is left unchanged.
    """
    n = len(c)
    h = (n + 1) // 2
    x = c.copy()
    a, b = x[1:h], x[n - 1:n - h:-1]
    ta, tb = tw[:h - 1], tw[n - 2:n - h - 1:-1]
    t1, t2 = a + b, a - b
    a[...] = ta * t2 + tb * t1
    b[...] = ta * t1 - tb * t2
    if n % 2 == 0:
        x[h] *= 2.0 * tw[h - 1]
    v = np.fft.rfft(x).view(float)  # [R_0, 0, R_1, I_1, ...]
    y = v[1:n + 1]
    y[0] = v[0]
    re, im = y[1:n - 1:2], y[2:n:2]
    re[...], im[...] = re - im, im + re
    return y


# Each family's one-grid transform of its moments (Fejer-2's folded) and grid inputs
_TRANSFORMS = {Family.FEJER1: _dct3, Family.FEJER2: lambda c, sines: _dst1(c) * sines,
               Family.CLENSHAW_CURTIS: lambda c, _: _dct1(c)}


def interp_rules(family: Family, ns, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points and weights of the interpolatory rules on the grids of every n in ns.

    Args:
        family: FEJER1, FEJER2 or CLENSHAW_CURTIS.
        ns: grid sizes, integers (operator.index) n >= 1 (Clenshaw-Curtis
            n >= 2), in any order, repeats allowed.
        m: modified moments m_0..m_K, m_j = integral of w T_j, with
            K >= max(ns) - 1; the n-point rule takes m_0..m_{n-1} (finite).

    Returns:
        (points, weights, bounds), the rules concatenated in the order of
        ns, read-only, rule i at [bounds[i], bounds[i+1]), its points equal to
        make_points(family, n) and its weights to those of
        interp_rules(family, [n], m[:n]) bit for bit.  The weights w give
        sum_i w_i f(x_i) = sum_j b_j(f) m_j for every f, b_j(f) being the
        coefficients of the polynomial interpolating f at the points, per grid a
        DCT-III of m (Fejer-1), a DCT-I (Clenshaw-Curtis) or a DST-I of the U-basis
        moments times sin(theta) (Fejer-2); _grid_store keeps the twiddles and sines.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 1:
        raise ValueError("moments must be a 1-D array")
    family, ns, ks, (points, inputs), bounds = _chunk_grids(family, ns)
    top = max(ns, default=0)
    if len(m) < top:
        raise ValueError(f"{top}-point rules need {top} moments, got {len(m)}")
    if not np.all(np.isfinite(m[:top])):
        raise ValueError("moments must be finite")
    if family is Family.FEJER2:
        m = _fejer2_moment_fold(m[:top])
    w = np.empty(bounds[-1])
    for n, k, a, b in zip(ns, ks, bounds.tolist(), bounds[1:].tolist()):
        np.divide(_TRANSFORMS[family](m[:n], inputs[a:b]), k, out=w[a:b])
    if family is Family.CLENSHAW_CURTIS:
        w[bounds[:-1]] *= 0.5
        w[bounds[1:] - 1] *= 0.5
    w.setflags(write=False)
    bounds.setflags(write=False)
    return points, w, bounds


class _NonFinite(ValueError):
    """A non-finite integrand value: _sample raises it and never retries on it."""


def _sample(f, x: np.ndarray) -> np.ndarray:
    """f at the points x, as floats of x's shape: one call over x (f acting
    elementwise) or one per point (f scalar-only); non-finite values raise ValueError."""
    try:
        fv = np.asarray(f(x), dtype=float)
        if fv.shape != x.shape:
            raise TypeError
    except _NonFinite:  # from a custom test function, which samples its fn here too
        raise
    except (TypeError, ValueError):
        fv = np.array([float(f(p)) for p in x.ravel()]).reshape(x.shape)
    if not np.all(np.isfinite(fv)):
        raise _NonFinite("integrand returned a non-finite value at a sample point")
    return fv


def cheb_expansion_coeffs(f, count: int, oversample: int) -> np.ndarray:
    """Leading Chebyshev expansion coefficients a_0..a_{count-1} of f.

    Approximates a_j = (2/pi) * integral of f(x) T_j(x) / sqrt(1-x^2)
    by an `oversample`-point Gauss-Chebyshev discretization: the DCT-II of
    f at the N = `oversample` Fejer-1 points, taken as the DCT-I of the
    2N + 1 Clenshaw-Curtis points of 2N intervals, whose odd-indexed ones
    they are, with f's values there and zeros at the even-indexed ones.
    Coefficients are primed-convention: the series reads
    f = a_0/2 + sum_{j>=1} a_j T_j.  Accuracy is limited by the aliasing
    of coefficients beyond `oversample`.  ``f`` may be vectorized over
    arrays or scalar-only; non-finite f values raise.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if oversample < 4 * count:
        raise ValueError(f"oversample must be >= 4*count = {4 * count}, got {oversample}")
    u = np.zeros(2 * oversample + 1)
    u[1::2] = _sample(f, make_points(Family.FEJER1, oversample))
    return _dct1(u)[:count] / oversample
