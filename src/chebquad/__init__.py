"""Weighted interpolatory quadrature on Chebyshev point sets.

Construction of n-point Clenshaw-Curtis, Fejer-first, Fejer-second and
Gauss-Legendre rules for Jacobi and log-Jacobi weights; modified-moment
tables; exact aliasing errors on single Chebyshev polynomials; and
empirical convergence-rate studies against a high-precision reference
oracle.
"""

# Each module's __all__ is its public API; the package re-exports every one.
from . import aliasing, analysis, chebcore, errors, moments, rules
from .aliasing import *
from .analysis import *
from .chebcore import *
from .errors import *
from .moments import *
from .rules import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (aliasing, analysis, chebcore, errors, moments, rules)
                 for name in module.__all__) + ["__version__"]
