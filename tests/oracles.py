"""Independent reference values shared by the test modules.

Everything here deliberately avoids the recurrence/transform machinery in
``chebquad`` itself: moments come from a terminating hypergeometric sum
evaluated in 60-digit arithmetic, so agreement with the package is a real
cross-check rather than the same code run twice.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import scipy.fft

# 60 working digits: the terminating sum below has alternating terms that can
# exceed the result by ~4^k, so double precision would lose everything long
# before k = 40.  60 digits leaves ~35 guard digits at the largest k we use.
_DPS = 60


def _chebyshev_hyp_coeffs(k: int) -> list:
    """Coefficients c_m of T_k(x) = sum_m c_m ((1-x)/2)^m (terminating 2F1)."""
    c = [mp.mpf(1)]
    for m in range(k):
        c.append(c[-1] * (-k + m) * (k + m) / ((mp.mpf(1) / 2 + m) * (m + 1)))
    return c


def chebyshev_jacobi_moment(alpha: float, beta: float, k: int) -> float:
    """integral of T_k(x) (1-x)^alpha (1+x)^beta over [-1,1], in closed form.

    Substituting u = (1-x)/2 turns each power of (1-x)/2 into a Beta
    function, so the whole moment is a finite sum of Beta values.
    """
    with mp.workdps(_DPS):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        total = mp.mpf(0)
        for m, cm in enumerate(_chebyshev_hyp_coeffs(k)):
            total += cm * mp.beta(a + 1 + m, b + 1)
        return float(mp.mpf(2) ** (a + b + 1) * total)


def chebyshev_log_jacobi_moment(alpha: float, beta: float, k: int) -> float:
    """Same integral with an extra ln((x+1)/2) factor.

    ln((x+1)/2) is d/dbeta of ((x+1)/2)^beta, so each Beta-function term
    just picks up a digamma difference; no quadrature involved.
    """
    with mp.workdps(_DPS):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        psi_b1 = mp.digamma(b + 1)
        total = mp.mpf(0)
        for m, cm in enumerate(_chebyshev_hyp_coeffs(k)):
            total += cm * mp.beta(a + 1 + m, b + 1) * (
                psi_b1 - mp.digamma(a + b + m + 2)
            )
        return float(mp.mpf(2) ** (a + b + 1) * total)


def quad_jacobi_moment(alpha: float, beta: float, k: int,
                       log_factor: bool = False) -> float:
    """Direct adaptive quadrature of the same integrand (mpmath tanh-sinh).

    Only trustworthy for small k (the integrand makes k oscillations); used
    to spot-check the closed form, never as the primary reference.
    """
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)

        def integrand(x):
            val = mp.chebyt(k, x) * (1 - x) ** a * (1 + x) ** b
            if log_factor:
                val *= mp.log((1 + x) / 2)
            return val

        return float(mp.quad(integrand, [-1, 0, 1]))


def kink_integral(kind: str, alpha: float, beta: float,
                  f_kind: str, c: float, s: float) -> float:
    """integral over [-1, 1] of w(x) f(x), rounded to double.

    w is the "jacobi" or "logjacobi" weight with parameters alpha, beta;
    f is |x-c|^s ("abspow") or (x-c)_+^s ("powplus").  60-digit tanh-sinh
    quadrature runs region by region in the distance z from each
    region's singular end, where the integrand behaves like z^e, and
    t = z^(1+e) makes it regular there.  Without the substitution
    tanh-sinh loses digits once alpha or beta nears -0.85; a plain
    mp.quad over [-1, c, 1] is off in the last digit of a double.  Each
    region is integrated twice, the second time divided by the first
    result, since mp.quad's error target is absolute.
    """
    with mp.workdps(_DPS):
        a, b, c, s = (mp.mpf(v) for v in (alpha, beta, c, s))

        def weight(one_minus, one_plus):
            w = one_minus ** a * one_plus ** b
            return w * mp.log(one_plus / 2) if kind == "logjacobi" else w

        # (length, exponent e at z = 0, z -> (1 - x, 1 + x, f(x)))
        regions = [
            ((1 - c) / 2, s, lambda z: (1 - c - z, 1 + c + z, z ** s)),  # x = c + z
            ((1 - c) / 2, a, lambda z: (z, 2 - z, (1 - c - z) ** s)),  # x = 1 - z
        ]
        if f_kind == "abspow":
            regions += [
                ((1 + c) / 2, s, lambda z: (1 - c + z, 1 + c - z, z ** s)),  # x = c - z
                ((1 + c) / 2, b, lambda z: (2 - z, z, (1 + c - z) ** s)),  # x = z - 1
            ]
        total = mp.mpf(0)
        for length, e, at in regions:
            p = 1 / (1 + e)

            def integrand(t, at=at, p=p):
                one_minus, one_plus, fx = at(t ** p)
                return weight(one_minus, one_plus) * fx * p * t ** (p - 1)

            # mp.quad stops on an absolute error near 10^-60, which is the
            # whole value of some regions; a second pass at unit scale is not
            first = mp.quad(integrand, [0, length ** (1 + e)])
            if first:
                first *= mp.quad(lambda t: integrand(t) / first, [0, length ** (1 + e)])
            total += first
        return float(total)


def gauss_legendre_per_n(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule, built on its own.

    The one-rule Newton builder the package used before it built the rules
    of a sweep together, kept verbatim: the batched builder must reproduce
    it bit for bit.
    """

    def legendre_pair(x):
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, n + 1):
            p, p_prev = ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j, p
        return p, p_prev

    half = (n + 1) // 2
    k = np.arange(1, half + 1, dtype=float)
    phi = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    theta = phi + np.cos(phi) / np.sin(phi) / (2.0 * (2.0 * n + 1.0) ** 2)
    x = -np.cos(theta)
    if n == 1:
        x = np.zeros(1)
    for _ in range(20):
        p, p_prev = legendre_pair(x)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    else:
        raise ArithmeticError(f"Newton iteration stalled at n={n}")
    p, p_prev = legendre_pair(x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    x -= p / dp
    if n % 2 == 1:
        x[-1] = 0.0
    p, p_prev = legendre_pair(x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate((x, -x[: n - half][::-1]))
    weights = np.concatenate((w, w[: n - half][::-1]))
    return nodes, weights


def weighted_rule_per_n(family: str, n: int, moments):
    """(nodes, weights) of the n-point weighted rule of a Chebyshev family,
    built on its own from the moments m_0..m_{n-1}.

    The one-rule point and transform code the package used before it
    built the rules of a sweep together, kept verbatim: the chunked
    builder must reproduce it bit for bit.
    """
    theta = _grid_angles(family, n)
    nodes = np.cos(theta)
    m = np.asarray(moments, dtype=float)
    if family == "fejer1":
        return nodes, scipy.fft.dct(m, type=3) / n
    if family == "clenshaw-curtis":
        nodes[0] = 1.0
        nodes[-1] = -1.0
        if n % 2 == 1:
            nodes[(n - 1) // 2] = 0.0
        w = scipy.fft.dct(m, type=1) / (n - 1)
        w[0] *= 0.5
        w[-1] *= 0.5
        return nodes, w
    u = np.zeros(n)
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        u[idx] = 2.0 * np.cumsum(m[idx])
    u[::2] -= m[0]
    return nodes, np.sin(theta) * scipy.fft.dst(u, type=1) / (n + 1.0)


def _grid_angles(family: str, n: int) -> np.ndarray:
    """Angles theta of the n points cos(theta) of a Chebyshev family, in order."""
    if family == "fejer1":
        return (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    if family == "fejer2":
        return np.arange(1, n + 1) * np.pi / (n + 1.0)
    return np.arange(n) * np.pi / (n - 1.0)


def interp_coeffs_direct(family: str, samples) -> np.ndarray:
    """Coefficients b_0..b_{n-1} (plain sum, q = sum b_j T_j) of the polynomial
    that interpolates ``samples`` at the n points of ``family``.

    O(n^2) direct sums of each grid's discrete orthogonality relation, with
    no fast transform: the independent side of the identity
    sum_i w_i f(x_i) = sum_j b_j(f) m_j that the package's weights obey.
    Fejer-2 goes through the U basis, U_k = 2(T_k + T_{k-2} + ...) with
    T_0 counted once.
    """
    f = np.asarray(samples, dtype=float)
    n = len(f)
    theta = _grid_angles(family, n)
    if family == "fejer1":
        b = np.array([2.0 / n * np.sum(f * np.cos(j * theta)) for j in range(n)])
        b[0] *= 0.5
        return b
    if family == "clenshaw-curtis":
        eta = np.ones(n)
        eta[0] = eta[-1] = 0.5
        b = np.array([2.0 * np.sum(eta * f * np.cos(j * theta)) for j in range(n)])
        return b * eta / (n - 1)
    g = f * np.sin(theta)
    c = np.array([2.0 / (n + 1.0) * np.sum(g * np.sin((k + 1) * theta)) for k in range(n)])
    b = np.zeros(n)
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        b[idx] = 2.0 * np.cumsum(c[idx][::-1])[::-1]
    b[0] *= 0.5
    return b


def cheb_eval(coeffs, x, primed: bool = False):
    """sum_j c_j T_j(x) in trigonometric form, the first term halved if
    ``primed``; x a scalar or an array in [-1, 1]."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.arccos(np.clip(arr, -1.0, 1.0))
    vals = np.zeros_like(arr)
    for j, cj in enumerate(coeffs):
        vals += (0.5 * cj if j == 0 and primed else cj) * np.cos(j * theta)
    return float(vals[0]) if np.ndim(x) == 0 else vals
