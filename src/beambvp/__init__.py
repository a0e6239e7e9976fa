"""Solver and inequality verifier for a fourth-order beam boundary value
problem with an integral boundary condition."""

from .errors import HypothesisViolation, NumericError
from .exprlang import ExpressionFn, ExprEvalError, ExprSyntaxError, parse
from .grid import GridFunction
from .hypotheses import (
    F0Certificate,
    FInfCertificate,
    H1H2Report,
    HypothesisReport,
    LimitEstimate,
    build_report,
    certify_f0_zero,
    certify_finf_zero,
    check_h1_h2,
    estimate_f0,
    estimate_finf,
)
from .kernel import KernelContext, g_weight, green, make_context
from .linear import ConeCheck, cone_ratio, polynomial_oracle, solve_linear
from .quadrature import QuadratureSettings, integrate, integrate_grid
from .solver import (
    BoundCheck,
    CollocationResult,
    OdeResidual,
    SolveConfig,
    SolveReport,
    apply_A,
    collocation_oracle,
    norm_bound_check,
    picard_solve,
    residual_integral,
    residual_ode,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CollocationResult",
    "ConeCheck",
    "ExpressionFn",
    "ExprEvalError",
    "ExprSyntaxError",
    "F0Certificate",
    "FInfCertificate",
    "GridFunction",
    "H1H2Report",
    "HypothesisReport",
    "HypothesisViolation",
    "KernelContext",
    "LimitEstimate",
    "NumericError",
    "OdeResidual",
    "QuadratureSettings",
    "SolveConfig",
    "SolveReport",
    "apply_A",
    "build_report",
    "certify_f0_zero",
    "certify_finf_zero",
    "check_h1_h2",
    "collocation_oracle",
    "cone_ratio",
    "estimate_f0",
    "estimate_finf",
    "g_weight",
    "green",
    "integrate",
    "integrate_grid",
    "make_context",
    "norm_bound_check",
    "parse",
    "picard_solve",
    "polynomial_oracle",
    "residual_integral",
    "residual_ode",
    "solve_linear",
    "__version__",
]
