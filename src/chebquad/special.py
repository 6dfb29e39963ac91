"""Scalar special functions backing the moment seed formulas.

Everything here is a deterministic, table-free function of 64-bit floats,
so repeated runs produce bit-identical results.
"""

import math

__all__ = ["digamma", "beta", "phi_combo"]

# Bernoulli-number coefficients B_{2n}/(2n) of the large-argument digamma
# series, n = 1..6.  With the recurrence shift to x >= 10 the first
# neglected term is below 1e-15 absolute.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def digamma(x: float) -> float:
    """Digamma (Psi) function, valid away from the poles 0, -1, -2, ...

    Uses the upward recurrence Psi(x+1) = Psi(x) + 1/x to push the
    argument to >= 10, then a six-term asymptotic series in 1/x^2.
    """
    if x == math.floor(x) and x <= 0.0:
        raise ValueError(f"digamma pole at nonpositive integer x = {x!r}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * u
    return acc + math.log(x) - 0.5 / x - tail


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0, computed through log-Gamma."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got {x!r}, {y!r}")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def phi_combo(alpha: float, beta_arg: float) -> float:
    """The combination Phi(alpha, beta) = B(alpha+1, beta) * [Psi(alpha+beta+1) - Psi(beta)].

    Appears in the seed values of the log-weighted moment recurrence.
    Requires alpha > -1 and beta > 0.
    """
    if not alpha > -1.0:
        raise ValueError(f"phi_combo requires alpha > -1, got {alpha!r}")
    if not beta_arg > 0.0:
        raise ValueError(f"phi_combo requires beta > 0, got {beta_arg!r}")
    return beta(alpha + 1.0, beta_arg) * (digamma(alpha + beta_arg + 1.0) - digamma(beta_arg))
