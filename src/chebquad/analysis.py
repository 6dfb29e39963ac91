"""Reference integrals, convergence sweeps and slope fits.

The empirical side of the package: a high-precision oracle for weighted
integrals of kink test functions, error sweeps of every rule over n,
and least-squares rate fits compared against the theoretical
convergence-rate tables (interpolatory Chebyshev rules under Jacobi and
log-Jacobi weights; Gauss-Legendre under the unit weight).

The oracle computes every integral twice with structurally different
methods and refuses to hand out a value when the two disagree: the
primary route -- the two-term 2F1 closed form of the AbsPow / PowPlus
integrals, or adaptive double-exponential quadrature for custom
integrands, both in 40-digit arithmetic -- and composite 60-point
Gauss-Legendre over dyadically graded panels in float64.  The panels
and the quadrature integrate in distance-from-singularity coordinates,
so neither endpoint algebra nor the interior kink suffers cancellation.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .chebcore import Family
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightKind, WeightSpec, min_bar, moments_for
from .rules import apply_each, rules_for, weight_abs_sum

__all__ = [
    "TestKind",
    "TestFunction",
    "abspow",
    "powplus",
    "custom",
    "reference_integral",
    "oracle_integral",
    "theoretical_rate",
    "fit_slope",
    "envelope_slope",
    "convergence_study",
    "ConvergenceReport",
    "weight_sum_study",
    "moment_decay_exponent",
    "gauss_open_problem_study",
    "OpenProblemReport",
]

_ORACLE_DPS = 40
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(60)
_AGREEMENT_ABORT = 1e-11
_NOISE_FLOOR_FACTOR = 1e3
_SLOPE_TOLERANCE = 0.2


class TestKind(enum.Enum):
    ABS_POW = "abspow"      # |x - c|^s, kink at interior c
    POW_PLUS = "powplus"    # (x - xi)_+^s, one-sided kink at xi
    CUSTOM = "custom"       # arbitrary smooth callable


@dataclass(frozen=True)
class TestFunction:
    """A test integrand with known singularity structure.

    AbsPow |x-c|^s lies in the coefficient class X^s (its Chebyshev
    coefficients decay like j^(-s-1)), as does PowPlus; s must not be
    an even integer for AbsPow, which would make it a polynomial.
    ``c`` doubles as xi for PowPlus and is ignored for Custom.
    """

    kind: TestKind
    c: float = 0.0
    s: float = 1.0
    fn: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "kind", TestKind(self.kind))
        if self.kind is TestKind.CUSTOM:
            if self.fn is None:
                raise ValueError("custom test functions need a callable")
            return
        if not (math.isfinite(self.c) and math.isfinite(self.s)):
            raise ValueError(f"parameters must be finite, got c={self.c}, s={self.s}")
        if not -1.0 < self.c < 1.0:
            raise ValueError(f"kink must sit inside (-1, 1), got {self.c}")
        if self.s <= 0:
            raise ValueError(f"exponent must be positive, got {self.s}")
        if self.kind is TestKind.ABS_POW and self.s % 2 == 0:
            raise ValueError("even-integer exponents make |x-c|^s a polynomial")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is TestKind.ABS_POW:
            return np.abs(x - self.c) ** self.s
        if self.kind is TestKind.POW_PLUS:
            return np.maximum(x - self.c, 0.0) ** self.s
        return self.fn(x)

    def describe(self) -> str:
        c, s = _number_tag(self.c), _number_tag(self.s)
        if self.kind is TestKind.ABS_POW:
            return f"|x-{c}|^{s}"
        if self.kind is TestKind.POW_PLUS:
            return f"(x-{c})_+^{s}"
        return self.label or "custom"


def _number_tag(x: float) -> str:
    """x as :g prints it where that reads back as x, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def abspow(c: float, s: float) -> TestFunction:
    return TestFunction(TestKind.ABS_POW, c, s)


def powplus(xi: float, s: float) -> TestFunction:
    return TestFunction(TestKind.POW_PLUS, xi, s)


def custom(fn: Callable, label: str = "") -> TestFunction:
    return TestFunction(TestKind.CUSTOM, fn=fn, label=label)


def _as_test_function(f) -> TestFunction:
    if isinstance(f, TestFunction):
        return f
    if callable(f):
        return custom(f)
    raise TypeError(f"expected TestFunction or callable, got {type(f)!r}")


# ---------------------------------------------------------------------------
# Reference oracle.
#
# The panels, and the quadrature of custom integrands, assemble the
# integral over [-1, 1] from regions, each in its own frame x = x0 + dx z,
# dx = +-1, with z the distance to the region's singular (or potentially
# singular) point x0:
#
#   left   x0 = -1, dx = +1     weight ~ z^beta (log z) near z = 0
#   right  x0 = +1, dx = -1     weight ~ z^alpha near z = 0
#   kink   x0 = c,  dx = +-1    integrand ~ z^s near z = 0
#
# Every region runs from z = 0 to the midpoint of its segment, so the
# regions tile [-1, 1] exactly, and 1 - x, 1 + x and |x - c| are formed
# from the frame without subtracting nearly equal quantities.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Region:
    x0: float           # the singular point, at z = 0
    dx: float           # +1 or -1: x = x0 + dx * z
    length: float       # upper z limit
    exponent: float     # local algebraic behavior z^exponent at z = 0

    def one_minus_plus(self, z):
        """1 - x and 1 + x at z, floats or mpf alike."""
        return (1 - self.x0) - self.dx * z, (1 + self.x0) + self.dx * z


def _regions_for(weight: WeightSpec, f: TestFunction) -> tuple[_Region, ...]:
    """The regions tiling [-1, 1], or [xi, 1] for PowPlus, which vanishes left of xi."""
    c, s = (0.0, 0.0) if f.kind is TestKind.CUSTOM else (f.c, f.s)
    lhalf, rhalf = (1.0 + c) / 2.0, (1.0 - c) / 2.0
    regions = (
        _Region(-1.0, 1.0, lhalf, weight.beta),
        _Region(c, -1.0, lhalf, s),
        _Region(c, 1.0, rhalf, s),
        _Region(1.0, -1.0, rhalf, weight.alpha),
    )
    return regions[2:] if f.kind is TestKind.POW_PLUS else regions


def _panel_depth(exponent: float, length: float) -> int:
    """Number of dyadic panels so the dropped tail mass is ~1e-16, with
    no panel reaching into the subnormal floats."""
    z, depth = length, 0
    while depth < 4000:
        tail = z ** (1.0 + exponent) * (1.0 + abs(math.log(z)))
        if tail <= 1e-16 or z < 2.0 * sys.float_info.min:
            break
        z *= 0.5
        depth += 1
    return max(depth, 4)


def _float_region(weight: WeightSpec, f: TestFunction, region: _Region) -> list[float]:
    """Contributions of one region under graded-panel Gauss-Legendre."""
    depth = _panel_depth(region.exponent, region.length)
    hi = region.length * np.exp2(-np.arange(depth, dtype=float))
    lo = hi * 0.5
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    z = mid[:, None] + half[:, None] * _PANEL_NODES[None, :]
    wq = half[:, None] * _PANEL_WEIGHTS[None, :]

    one_minus, one_plus = region.one_minus_plus(z)
    w = one_minus ** weight.alpha * one_plus ** weight.beta
    if weight.kind is WeightKind.LOGJACOBI:  # ln((1+x)/2), near x = 1 as log1p(-(1-x)/2)
        w = w * (np.log1p(-one_minus / 2.0) if region.x0 == 1.0 else np.log(one_plus / 2.0))
    if f.kind is TestKind.CUSTOM:
        fv = f(region.x0 + region.dx * z)
    else:
        fv = np.abs((region.x0 - f.c) + region.dx * z) ** f.s
    return np.ravel(wq * w * fv).tolist()


def _float_value(weight: WeightSpec, f: TestFunction) -> float:
    terms: list[float] = []
    for region in _regions_for(weight, f):
        terms.extend(_float_region(weight, f, region))
    return math.fsum(terms)


def _kink_piece(alpha, beta, c, s):
    """integral of (1-x)^alpha (1+x)^beta (c-x)^s over (-1, c), in mpf.

    x = -1 + (1+c) t turns it into an Euler integral: the Beta function
    times 2F1(-alpha, beta+1; beta+s+2; (1+c)/2).
    """
    return ((1 + c) ** (s + beta + 1) * 2 ** alpha * mp.beta(beta + 1, s + 1)
            * mp.hyp2f1(-alpha, beta + 1, beta + s + 2, (1 + c) / 2))


def _kink_value(weight: WeightSpec, f: TestFunction) -> float:
    """integral(w * f) for AbsPow / PowPlus in closed form, at 40 digits."""
    with mp.workdps(_ORACLE_DPS):
        alpha, beta, c, s = map(mp.mpf, (weight.alpha, weight.beta, f.c, f.s))

        def jacobi_value(beta):
            right = _kink_piece(beta, alpha, -c, s)  # the mirror image x -> -x
            if f.kind is TestKind.POW_PLUS:
                return right
            return _kink_piece(alpha, beta, c, s) + right

        if weight.kind is WeightKind.JACOBI:
            return float(jacobi_value(beta))
        # ln((1+x)/2) (1+x)^beta = 2^beta d/dbeta [2^-beta (1+x)^beta]
        return float(2 ** beta * mp.diff(lambda b: 2 ** -b * jacobi_value(b), beta))


def _de_value(weight: WeightSpec, f: TestFunction) -> tuple[float, float]:
    """integral(w * f) for a custom f and the summed error estimates, by
    40-digit double-exponential quadrature region by region."""
    with mp.workdps(_ORACLE_DPS):
        alpha, beta = mp.mpf(weight.alpha), mp.mpf(weight.beta)
        total = err = mp.mpf(0)
        for region in _regions_for(weight, f):

            def integrand(z):
                if z <= 0:
                    return mp.mpf(0)
                one_minus, one_plus = region.one_minus_plus(z)
                w = one_minus ** alpha * one_plus ** beta
                if weight.kind is WeightKind.LOGJACOBI:
                    w *= mp.log(one_plus / 2)
                return w * mp.mpf(float(f.fn(float(region.x0 + region.dx * z))))

            value, e = mp.quad(integrand, [0, region.length], error=True)
            total += value
            err += abs(e)
        return float(total), float(err)


@lru_cache(maxsize=512)
def _oracle(weight: WeightSpec, f: TestFunction) -> tuple[float, float]:
    if f.kind is TestKind.CUSTOM:
        route, (value, route_err) = "double-exponential", _de_value(weight, f)
    else:
        route, value, route_err = "closed-form", _kink_value(weight, f), 0.0
    panel_value = _float_value(weight, f)
    disagreement = abs(value - panel_value)
    scale = max(1.0, abs(value))
    if not disagreement <= _AGREEMENT_ABORT * scale:  # a NaN fails too
        raise NumericalFailure(
            "reference oracle disagreement for "
            f"weight={weight}, f={f.describe()}: "
            f"{route} {value!r} vs graded-panel {panel_value!r} "
            f"(|diff| = {disagreement:.3e} > {_AGREEMENT_ABORT:g} * {scale:g})"
        )
    est = max(disagreement, route_err, abs(value) * 1e-16, 1e-300)
    return value, est


def oracle_integral(weight: WeightSpec, f) -> tuple[float, float]:
    """Reference value of integral(w * f) and its estimated absolute error."""
    return _oracle(weight, _as_test_function(f))


def reference_integral(weight: WeightSpec, f) -> float:
    """Reference value of integral(w * f); see oracle_integral for the error."""
    return oracle_integral(weight, f)[0]


# ---------------------------------------------------------------------------
# Rate theory and slope fitting.
# ---------------------------------------------------------------------------


def theoretical_rate(family: Family, weight: WeightSpec, s: float) -> tuple[float, bool]:
    """Predicted error exponent and whether an ln(n) factor accompanies it.

    Chebyshev-point rules: n^(-s-1) when min(alpha, beta) >= -1/2
    (Jacobi) resp. beta > -1/2 (log-Jacobi); otherwise the endpoint
    singularity throttles the rate to n^(-s-2-2*min(alpha, beta)) resp.
    n^(-s-2-2*beta) ln(n).  Gauss-Legendre under the unit weight:
    n^(-2s) for 0 < s < 1, n^(-2) ln(n) at s = 1, n^(-s-1) for s > 1.
    s outside (0, inf), NaN included, raises ValueError.
    """
    family = Family(family)
    if not 0.0 < s < math.inf:
        raise ValueError(f"exponent must be positive and finite, got {s}")
    if family is Family.GAUSS_LEGENDRE:
        if weight != UNIT_WEIGHT:
            raise ValueError("Gauss-Legendre rate theory covers the unit weight only")
        if s < 1.0:
            return -2.0 * s, False
        if s == 1.0:
            return -2.0, True
        return -s - 1.0, False
    if weight.kind is WeightKind.JACOBI:
        smaller = min(weight.alpha, weight.beta)
        if smaller >= -0.5:
            return -s - 1.0, False
        return -s - 2.0 - 2.0 * smaller, False
    if weight.beta > -0.5:
        return -s - 1.0, False
    return -s - 2.0 - 2.0 * weight.beta, True


def _usable(ns, errors, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The (n, error) pairs with n inside the window and a finite positive error."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape:
        raise ValueError("ns and errors must have matching shapes")
    lo, hi = window
    keep = (ns >= lo) & (ns <= hi) & np.isfinite(errors) & (errors > 0.0)
    return ns[keep], errors[keep]


def fit_slope(
    ns: Sequence[int], errors: Sequence[float], window: tuple[int, int]
) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(n) inside the window.

    Zero, negative and non-finite errors are excluded (they mark exact
    hits or noise-floor entries, not data).  Raises ValueError when
    fewer than 5 usable points remain or the data are degenerate.
    """
    x, y = _usable(ns, errors, window)
    if len(x) < 5:
        raise ValueError(f"need at least 5 usable points in window {window}, got {len(x)}")
    x, y = np.log(x), np.log(y)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("degenerate fit data: no spread in n or in error")
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residual**2)) / ss_tot
    return float(slope), r_squared


def _strict_peaks(y: np.ndarray) -> np.ndarray:
    """Indices i where y[i] exceeds y[i +- 1] and y[i +- 2], neighbour indices
    clipped to the ends (so the ends are never peaks): argrelmax(y, order=2)."""
    i = np.arange(len(y))
    peak = np.ones(len(y), dtype=bool)
    for k in (1, 2):
        peak &= (y > np.take(y, i + k, mode="clip")) & (y > np.take(y, i - k, mode="clip"))
    return np.flatnonzero(peak)


def envelope_slope(
    ns: Sequence[int], errors: Sequence[float], window: tuple[int, int]
) -> tuple[float, float]:
    """Least-squares slope through the local maxima of the error sequence.

    Kink integrands make the quadrature error oscillate inside a
    C*n^slope envelope as nodes slide past the kink; a straight fit
    through all points then measures the oscillation as much as the
    decay (visible as a poor r_squared from fit_slope).  Fitting only
    the strict interior local maxima recovers the envelope exponent --
    the quantity the rate-line figures display.  The grid must be dense
    (ideally every integer in the window): on a sparse grid a point can
    be a maximum among its sampled neighbours while sitting nowhere
    near a true envelope peak.
    """
    x, y = _usable(ns, errors, window)
    peaks = _strict_peaks(y)
    if len(peaks) < 5:
        raise ValueError(
            f"need at least 5 envelope peaks in window {window}, got {len(peaks)}"
        )
    return fit_slope(x[peaks], y[peaks], window)


def _sweep_ns(ns) -> tuple[int, ...]:
    """ns as ints (operator.index), strictly increasing, nonempty, in [10, 5000]."""
    ns = tuple(map(operator.index, ns))
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise ValueError("ns must be strictly increasing and nonempty")
    if ns[0] < 10 or ns[-1] > 5000:
        raise ValueError("ns must lie within [10, 5000]")
    return ns


@dataclass(frozen=True)
class ConvergenceReport:
    family: Family
    weight: WeightSpec
    test: TestFunction
    ns: tuple[int, ...]
    abs_errors: tuple[float, ...]
    fitted_slope: float
    r_squared: float
    theoretical_slope: float
    log_factor: bool
    passed: bool
    fit_window: tuple[int, int]
    reference: float
    oracle_error: float
    fit: str = "ols"


def convergence_study(
    family: Family,
    weight: WeightSpec,
    f,
    ns: Sequence[int],
    fit_window: Optional[tuple[int, int]] = None,
    slope_tolerance: float = _SLOPE_TOLERANCE,
    fit: str = "ols",
) -> ConvergenceReport:
    """Sweep the rule over n, fit the error decay, compare with theory.

    Entries whose error sits within 1e3x of the oracle's own error
    estimate are treated as noise and excluded from the fit (never
    clamped).  When the theoretical rate carries an ln(n) factor the
    fit divides it out first.  The default window [max(100, ns[0]),
    ns[-1]] skips the pre-asymptotic regime.

    fit="ols" regresses through every usable point; fit="envelope"
    regresses through local error maxima only (see envelope_slope),
    which needs a dense n-grid but is insensitive to the node-kink
    oscillation that dominates sparse-grid OLS estimates.
    """
    family = Family(family)
    f = _as_test_function(f)
    ns = _sweep_ns(ns)
    if f.kind is TestKind.CUSTOM:
        raise ValueError("rate prediction needs an AbsPow or PowPlus test function")
    if fit not in ("ols", "envelope"):
        raise ValueError(f"fit must be 'ols' or 'envelope', got {fit!r}")
    if not 0.0 <= slope_tolerance < math.inf:  # a NaN fails too
        raise ValueError(f"slope tolerance must be finite and >= 0, got {slope_tolerance}")

    theoretical_slope, log_factor = theoretical_rate(family, weight, f.s)
    reference, est = oracle_integral(weight, f)
    errors = tuple(abs(reference - value)
                   for value in apply_each(rules_for(family, ns, weight), f))

    if fit_window is None:
        fit_window = (max(100, ns[0]), ns[-1])
    noise_floor = _NOISE_FLOOR_FACTOR * est
    fit_errors = np.asarray(errors, dtype=float)
    fit_errors = np.where(fit_errors > noise_floor, fit_errors, 0.0)
    if log_factor:
        fit_errors = fit_errors / np.log(np.asarray(ns, dtype=float))
    fitter = envelope_slope if fit == "envelope" else fit_slope
    fitted_slope, r_squared = fitter(ns, fit_errors, fit_window)
    passed = abs(fitted_slope - theoretical_slope) <= slope_tolerance
    return ConvergenceReport(
        family=family,
        weight=weight,
        test=f,
        ns=ns,
        abs_errors=errors,
        fitted_slope=fitted_slope,
        r_squared=r_squared,
        theoretical_slope=theoretical_slope,
        log_factor=log_factor,
        passed=passed,
        fit_window=(int(fit_window[0]), int(fit_window[1])),
        reference=reference,
        oracle_error=est,
        fit=fit,
    )


# ---------------------------------------------------------------------------
# Auxiliary studies.
# ---------------------------------------------------------------------------


def weight_sum_study(
    family: Family, weight: WeightSpec, ns: Sequence[int]
) -> list[tuple[int, float, float]]:
    """(n, sum of |w_j|, signed deviation from integral |w|) for each n.

    Both weight families keep one sign on (-1, 1) (the log factor is
    <= 0 throughout), so integral |w| is |M_0| resp. |G_0| and the
    interpolatory weight sums must converge to it.
    """
    target = abs(moments_for(weight, 0).values[0])
    rows = []
    for rule in rules_for(family, ns, weight):
        total = weight_abs_sum(rule)
        rows.append((rule.n, total, total - target))
    return rows


def moment_decay_exponent(
    weight: WeightSpec, k_lo: int = 32, k_hi: int = 4096
) -> tuple[float, float, float]:
    """(fitted exponent, theoretical exponent, r^2) of the moment decay.

    Jacobi moments |M_k| decay like k^(-2-2*min_bar(alpha, beta));
    log-Jacobi moments carry an extra ln(2k), which is divided out
    before fitting so the exponent comparison is -2-2*beta.  Zero
    moments (symmetric weights, degenerate half-integer pairs) are
    excluded; degenerate tails raise ValueError.
    """
    if not 0 < k_lo < k_hi:
        raise ValueError(f"need 0 < k_lo < k_hi, got {k_lo}, {k_hi}")
    table = moments_for(weight, k_hi)
    ks = np.unique(np.round(np.geomspace(k_lo, k_hi, 30)).astype(int))
    vals = np.abs(table.values[ks])
    if weight.kind is WeightKind.LOGJACOBI:
        vals = vals / np.log(2.0 * ks)
        theoretical = -2.0 - 2.0 * weight.beta
    else:
        theoretical = -2.0 - 2.0 * min_bar(weight.alpha, weight.beta)
    # Magnitudes at the roundoff floor of the recurrence are noise.
    floor = np.max(vals) * 1e-13
    usable = np.where(vals > floor, vals, 0.0)
    fitted, r_squared = fit_slope(ks, usable, (k_lo, k_hi))
    return fitted, theoretical, r_squared


@dataclass(frozen=True)
class OpenProblemReport:
    """Gauss-vs-Clenshaw-Curtis rates on a Jacobi weight; informational only.

    Whether the n-point Gauss rule of the Jacobi weight matches the
    Chebyshev-rule rate for X^s integrands is open, so this report
    carries fitted slopes and no pass/fail verdict.  Columns: the Gauss
    rule built for the weight itself, Gauss-Legendre applied to the
    weighted integrand, and the weighted Clenshaw-Curtis rule.
    """

    weight: WeightSpec
    test: TestFunction
    ns: tuple[int, ...]
    gauss_jacobi_errors: tuple[float, ...]
    gauss_legendre_errors: tuple[float, ...]
    clenshaw_curtis_errors: tuple[float, ...]
    slopes: dict
    chebyshev_rate: float
    reference: float


def gauss_open_problem_study(
    weight: WeightSpec, f, ns: Sequence[int],
    fit_window: Optional[tuple[int, int]] = None,
) -> OpenProblemReport:
    import scipy.special

    f = _as_test_function(f)
    if weight.kind is not WeightKind.JACOBI:
        raise ValueError("the open-problem experiment uses Jacobi weights")
    if f.kind is TestKind.CUSTOM:
        raise ValueError("the open-problem experiment needs an X^s test function")
    ns = _sweep_ns(ns)
    reference, _ = oracle_integral(weight, f)
    gj = []
    for n in ns:
        x, w = scipy.special.roots_jacobi(n, weight.alpha, weight.beta)
        gj.append(abs(reference - math.fsum((w * f(x)).tolist())))
    gl = [abs(reference - math.fsum((rule.weights * weight(rule.nodes) * f(rule.nodes)).tolist()))
          for rule in rules_for(Family.GAUSS_LEGENDRE, ns, UNIT_WEIGHT)]
    cc = [abs(reference - value)
          for value in apply_each(rules_for(Family.CLENSHAW_CURTIS, ns, weight), f)]
    if fit_window is None:
        fit_window = (max(100, ns[0]), ns[-1])
    slopes = {}
    for name, errs in (("gauss-jacobi", gj), ("gauss-legendre", gl),
                       ("clenshaw-curtis", cc)):
        try:
            slopes[name] = fit_slope(ns, errs, fit_window)
        except ValueError:
            slopes[name] = (math.nan, math.nan)
    rate, _ = theoretical_rate(Family.CLENSHAW_CURTIS, weight, f.s)
    return OpenProblemReport(
        weight=weight,
        test=f,
        ns=ns,
        gauss_jacobi_errors=tuple(gj),
        gauss_legendre_errors=tuple(gl),
        clenshaw_curtis_errors=tuple(cc),
        slopes=slopes,
        chebyshev_rate=rate,
        reference=reference,
    )
