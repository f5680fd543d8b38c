"""Exception types raised by the engine, and the two parameter rules.

Every error the package raises deliberately derives from EngineError, so
callers (and the CLI) can distinguish engine failures from programming bugs.
Every integer parameter passes ``check_int`` and every positive real one
``check_positive``: a bad value is a RangeError worded alike everywhere.
"""

import math
import numbers


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EngineError):
    """Array shapes or chart dimensions do not match what an operation needs."""


class DomainError(EngineError):
    """A point lies outside the chart domain (a flow that leaves it later is
    truncated instead), or a Lax matrix is non-finite or asymmetric."""


class RangeError(EngineError):
    """A parameter (depth, size, sample count, ...) is outside its legal range."""


class SingularTensorError(EngineError):
    """A tensor that must be invertible is numerically singular.

    Raised when the reciprocal condition number 1 / (||A|| ||A^-1||) in the
    infinity norm falls below 1e-12 (jets.RCOND_MIN) or is not finite, and
    when the inverse breaks down on an exactly zero pivot.
    """


class StepUnderflow(EngineError):
    """The adaptive integrator pushed the step size below dt_min = 1e-12."""


class ConvergenceError(EngineError):
    """LAPACK's symmetric eigensolver did not converge on a Lax matrix
    (``dynamics.lax_eigenvalues``, which names the matrix's tag)."""


def check_int(name, value, lo=None, hi=None):
    """``value`` as an int; RangeError unless it is an integer (numpy's too,
    not a bool, a float or a string), >= lo when lo is given and <= hi when
    hi is given (a bound left as None is no bound)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and hi is not None and not lo <= value <= hi:
        raise RangeError(f"{name} must be in {lo}..{hi}, got {value}")
    if lo is not None and value < lo:
        raise RangeError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise RangeError(f"{name} must be <= {hi}, got {value}")
    return value


def check_positive(name, value):
    """``value`` unchanged; RangeError unless it is a real number, finite and
    > 0 (not nan, a string or None)."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise RangeError(f"{name} must be finite and positive, got {value}")
    return value
