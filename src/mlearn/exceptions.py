"""Exception hierarchy shared across the package.

Input problems (bad shapes, bad labels, unparseable files) raise
:class:`ValidationError` or one of its subclasses; failures of the numerics
themselves (non-convergence, singular spectra, ill-conditioning) raise
:class:`NumericalError`. The CLI maps the former to exit code 2 and the
latter to exit code 3. :func:`check_at_least` is the one type-and-range
check for integer and real arguments.
"""

import numbers


class MetricLearnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MetricLearnError, ValueError):
    """Invalid user input: shapes, labels, options, file contents."""


class DimensionError(ValidationError):
    """Mismatched or unsupported array dimensions."""


class SymmetryError(ValidationError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NumericalError(MetricLearnError, RuntimeError):
    """A numerical procedure failed (non-convergence, overflow, ...)."""


class RankError(NumericalError):
    """An operation required a nonzero spectrum but found none."""


class ConditioningError(NumericalError):
    """A matrix is too ill-conditioned (for example not positive definite)."""


class ConvergenceWarning(UserWarning):
    """A solver stopped at its iteration cap without meeting its tolerance."""


def check_at_least(name: str, value, low=None, kind=numbers.Integral):
    """value, which must be a kind (a bool is neither) and >= low unless
    low is None."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or (low is not None and not value >= low)):
        what = "an integer" if kind is numbers.Integral else "a number"
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be {what}{bound}, got {value!r}")
    return value
