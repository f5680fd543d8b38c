"""Poisson-Nijenhuis structures from coordinate data.

The package evaluates bivector pairs (pi0, pi1) given by closed-form
coordinate tables, builds the recursion operator N = pi1# o (pi0#)^{-1} and
its canonical hierarchy, computes modular vector fields, and checks every
identity these objects are supposed to satisfy at machine precision, both on
sampled points and along integrated flows.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DimensionError, DomainError,
                     EngineError, RangeError, SingularTensorError,
                     StepUnderflow)
from .jets import Jet2

__all__ = [
    "Jet2",
    "EngineError", "DimensionError", "DomainError", "RangeError",
    "SingularTensorError", "StepUnderflow",
    "ConvergenceError",
    "__version__",
]
