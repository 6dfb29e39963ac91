"""Package-level error types."""

__all__ = ["NumericalFailure"]


class NumericalFailure(RuntimeError):
    """An iteration or the reference quadrature failed to converge, or a
    result left the float64 range."""
