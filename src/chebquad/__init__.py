"""Weighted interpolatory quadrature on Chebyshev point sets.

Construction of n-point Clenshaw-Curtis, Fejer-first, Fejer-second and
Gauss-Legendre rules for Jacobi and log-Jacobi weights; modified-moment
tables; exact aliasing errors on single Chebyshev polynomials; and
empirical convergence-rate studies against a high-precision reference
oracle.
"""

from .aliasing import (
    AliasRecord,
    ReducedForm,
    alias_errors,
    alias_reduce,
    error_series_check,
)
from .analysis import (
    ConvergenceReport,
    OpenProblemReport,
    TestFunction,
    TestKind,
    abspow,
    convergence_study,
    custom,
    envelope_slope,
    fit_slope,
    gauss_open_problem_study,
    moment_decay_exponent,
    oracle_integral,
    powplus,
    theoretical_rate,
    weight_sum_study,
)
from .chebcore import (
    CHEBYSHEV_FAMILIES,
    Family,
    cheb_expansion_coeffs,
    chebyshev_T,
    interp_rules,
    make_points,
)
from .errors import NumericalFailure
from .moments import (
    UNIT_WEIGHT,
    MomentTable,
    WeightKind,
    WeightSpec,
    min_bar,
    moment_asymptotic,
    moments_for,
)
from .rules import (
    QuadratureRule,
    apply,
    apply_each,
    rule_for,
    rules_for,
    weight_abs_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AliasRecord",
    "CHEBYSHEV_FAMILIES",
    "ConvergenceReport",
    "Family",
    "MomentTable",
    "NumericalFailure",
    "OpenProblemReport",
    "QuadratureRule",
    "ReducedForm",
    "TestFunction",
    "TestKind",
    "UNIT_WEIGHT",
    "WeightKind",
    "WeightSpec",
    "abspow",
    "alias_errors",
    "alias_reduce",
    "apply",
    "apply_each",
    "cheb_expansion_coeffs",
    "chebyshev_T",
    "convergence_study",
    "custom",
    "envelope_slope",
    "error_series_check",
    "fit_slope",
    "gauss_open_problem_study",
    "interp_rules",
    "make_points",
    "min_bar",
    "moment_asymptotic",
    "moment_decay_exponent",
    "moments_for",
    "oracle_integral",
    "powplus",
    "rule_for",
    "rules_for",
    "theoretical_rate",
    "weight_abs_sum",
    "weight_sum_study",
    "__version__",
]
