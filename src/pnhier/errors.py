"""Exception types raised by the engine.

Every error the package raises deliberately derives from EngineError, so
callers (and the CLI) can distinguish engine failures from programming bugs.
"""


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
    """An iterative solver exhausted its iteration budget."""
