"""Reference integrals, convergence sweeps and slope fits.

The empirical side of the package: a high-precision oracle for weighted
integrals of kink test functions, error sweeps of every rule over n,
least-squares rate fits compared against the theoretical
convergence-rate tables (interpolatory Chebyshev rules under Jacobi and
log-Jacobi weights; Gauss-Legendre under the unit weight), and the
aliasing error series of a function checked against its measured error.

The oracle takes one route per integrand kind, in 40-digit arithmetic,
for every weight exponent alpha, beta > -1: the two-term 2F1 closed form
of the AbsPow / PowPlus integrals, and double-exponential quadrature
(Takahasi & Mori, Publ. RIMS 9, 1974) for custom integrands, run in a
variable that makes each endpoint's weight singularity regular.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .aliasing import alias_errors
from .chebcore import Family, _sample, cheb_expansion_coeffs
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightKind, WeightSpec, _endpoint_terms, moments_for
from .rules import _chunk_sums, _joined, _rounded_sums, _rule_chunks, apply, rule_for, rules_for

__all__ = [
    "TestKind",
    "TestFunction",
    "abspow",
    "powplus",
    "custom",
    "oracle_integral",
    "error_series_check",
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
_ROUNDING = 2.0 ** -53  # relative bound on rounding a 40-digit value to float64
_DE_ABORT = 1e-11
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
        return _sample(self.fn, x)[()]  # a scalar for a scalar x

    def describe(self) -> str:
        c, s = _number_tag(self.c), _number_tag(self.s)
        if self.kind is TestKind.ABS_POW:
            return f"|x-{c}|^{s}"
        if self.kind is TestKind.POW_PLUS:
            return f"(x-{c})_+^{s}"
        return "custom"


def _number_tag(x: float) -> str:
    """x as :g prints it where that reads back as x, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def abspow(c: float, s: float) -> TestFunction:
    return TestFunction(TestKind.ABS_POW, c, s)


def powplus(xi: float, s: float) -> TestFunction:
    return TestFunction(TestKind.POW_PLUS, xi, s)


def custom(fn: Callable) -> TestFunction:
    """A smooth integrand fn for the oracle, the studies and the error series.
    fn may be vectorized or scalar-only (such as math.exp): every sampler and a
    direct call sample it through chebcore._sample, so non-finite values raise."""
    return TestFunction(TestKind.CUSTOM, fn=fn)


def _as_test_function(f) -> TestFunction:
    if isinstance(f, TestFunction):
        return f
    if callable(f):
        return custom(f)
    raise TypeError(f"expected TestFunction or callable, got {type(f)!r}")


# ---------------------------------------------------------------------------
# Reference oracle.
#
# One route per integrand kind, both in 40-digit arithmetic: the two-term
# 2F1 closed form for AbsPow and PowPlus, and double-exponential quadrature
# for custom integrands.  The quadrature splits [-1, 1] at 0 into two
# regions, each in its own frame x = x0 (1 - z), with z the distance to the
# region's endpoint x0 and e the weight's exponent there:
#
#   left   x0 = -1     weight ~ z^beta (log z) near z = 0
#   right  x0 = +1     weight ~ z^alpha near z = 0
#
# It integrates each region in t = z^(1+e), where z^e dz = dt / (1+e), so
# the endpoint factor drops out exactly, over the images of z in [0, 1/2]
# and [1/2, 1] (with one piece per region the error estimate missed
# unresolved oscillation).  The far factor is (2 - z)^(other exponent),
# formed without subtracting nearly equal quantities.
# ---------------------------------------------------------------------------


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
        for x0, e, e_far in ((-1, beta, alpha), (1, alpha, beta)):
            p = 1 / (1 + e)

            def integrand(t):
                z = t ** p
                fx = mp.mpf(float(_sample(f.fn, np.float64(x0 * (1 - z)))))
                term = p * (2 - z) ** e_far * fx
                if weight.kind is WeightKind.LOGJACOBI:  # ln((1+x)/2), 1 + x = z or 2 - z
                    term *= mp.log((z if x0 < 0 else 2 - z) / 2)
                return term

            part, part_err = mp.quad(integrand, [0, 2 ** -(1 + e), 1], error=True)
            total += part
            err += abs(part_err)
        return float(total), float(err)


@lru_cache(maxsize=512)
def _oracle(weight: WeightSpec, f: TestFunction) -> tuple[float, float]:
    if f.kind is TestKind.CUSTOM:
        route, (value, route_err) = "double-exponential", _de_value(weight, f)
    else:
        route, value, route_err = "closed-form", _kink_value(weight, f), 0.0
    scale = max(1.0, abs(value))
    if not route_err <= _DE_ABORT * scale < math.inf:  # a NaN or an overflow fails too
        raise NumericalFailure(
            f"reference oracle failed for weight={weight}, f={f.describe()}: "
            f"{route} value {value!r}, estimated error {route_err:.3e} "
            f"(limit {_DE_ABORT:g} * {scale:g})"
        )
    return value, route_err + _ROUNDING * abs(value)


def oracle_integral(weight: WeightSpec, f) -> tuple[float, float]:
    """Reference value of integral(w * f) and its estimated absolute error.

    The error covers the oracle's own route -- nothing for the closed form
    of AbsPow / PowPlus, the quadrature's estimate for a custom f -- plus
    2^-53 |value| for rounding the 40-digit result to float64.  It does not
    cover sampling a custom f in float64.  NumericalFailure is raised when
    the quadrature's estimate exceeds 1e-11 * max(1, |value|), or when the
    value overflows float64.
    """
    return _oracle(weight, _as_test_function(f))


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
    The E_n[T_j] are alias_errors' ``computed`` values; sums are correctly rounded.
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
    reference, _ = oracle_integral(weight, f)
    measured = reference - apply(rule, f)

    count = truncation + 1
    oversample = max(4 * count, 4096)
    coeffs = cheb_expansion_coeffs(f, count, oversample)
    errors = [rec.computed for rec in alias_errors(rule.family, rule.n,
                                                   range(start, count), weight)]
    series = _rounded_sums(coeffs[start:] * errors, [0, len(errors)])[0]
    return abs(measured - series)


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


def _fit_window(ns: tuple[int, ...], fit_window: Optional[tuple[int, int]]) -> tuple[int, int]:
    """fit_window, or the default window of every sweep when it is None."""
    return (max(100, ns[0]), ns[-1]) if fit_window is None else fit_window


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
                   for value in _chunk_sums(_rule_chunks(family, ns, weight), f))

    fit_window = _fit_window(ns, fit_window)
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
    return [(n, total, total - target)
            for chunk, _, weights, bounds in _rule_chunks(family, ns, weight)
            for n, total in zip(chunk, _rounded_sums(np.abs(weights), bounds))]


def moment_decay_exponent(
    weight: WeightSpec, k_lo: int = 32, k_hi: int = 4096
) -> tuple[float, float, float]:
    """(fitted exponent, theoretical exponent, r^2) of the moment decay.

    The theory is the slowest live term of moments._endpoint_terms (on a
    tie, the one carrying ln 2k, which is then divided out before fitting).
    Weights with no live term have moments that end at a finite k, and
    raise ValueError, as do other degenerate tails.
    """
    if not 0 < k_lo < k_hi:
        raise ValueError(f"need 0 < k_lo < k_hi, got {k_lo}, {k_hi}")
    live = [t for t in _endpoint_terms(weight) if t.live]
    if not live:
        raise ValueError(f"no live endpoint term: the moments of {weight} end at a finite k")
    slowest = min(live, key=lambda t: (t.e, not t.log))
    table = moments_for(weight, k_hi)
    ks = np.unique(np.round(np.geomspace(k_lo, k_hi, 30)).astype(int))
    vals = np.abs(table.values[ks])
    if slowest.log:
        vals = vals / np.log(2.0 * ks)
    # Magnitudes at the roundoff floor of the recurrence are noise.
    floor = np.max(vals) * 1e-13
    usable = np.where(vals > floor, vals, 0.0)
    fitted, r_squared = fit_slope(ks, usable, (k_lo, k_hi))
    return fitted, -2.0 - 2.0 * slowest.e, r_squared


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
    columns = [  # every product as (rule weight) * f(node); GL's weight is w * W(x)
        _joined((n, *scipy.special.roots_jacobi(n, weight.alpha, weight.beta)) for n in ns),
        _joined((r.n, r.nodes, r.weights * weight(r.nodes))
                for r in rules_for(Family.GAUSS_LEGENDRE, ns, UNIT_WEIGHT)),
        _rule_chunks(Family.CLENSHAW_CURTIS, ns, weight)]
    gj, gl, cc = ([abs(reference - value) for value in _chunk_sums(chunks, f)]
                  for chunks in columns)
    fit_window = _fit_window(ns, fit_window)
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
