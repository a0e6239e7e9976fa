"""Solver and inequality verifier for a fourth-order beam boundary value
problem with an integral boundary condition.

The names below are the documented library API; everything else is
importable from its submodule."""

from .errors import HypothesisViolation, NumericError
from .exprlang import ExprEvalError, ExprSyntaxError, parse
from .kernel import make_context
from .quadrature import QuadratureSettings, integrate
from .solver import SolveConfig, picard_solve

__version__ = "0.1.0"

__all__ = [
    "ExprEvalError",
    "ExprSyntaxError",
    "HypothesisViolation",
    "NumericError",
    "QuadratureSettings",
    "SolveConfig",
    "integrate",
    "make_context",
    "parse",
    "picard_solve",
    "__version__",
]
