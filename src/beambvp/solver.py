"""Fixed-point operator, Picard iteration, residual diagnostics, and an
independent finite-difference collocation oracle.

The nonlinear operator is

    (A u)(t) = integral of H(t, s) f(u(s)) ds

with H from the kernel module; u solves the beam problem iff u = A u.
``picard_solve`` iterates u <- (1-w) u + w A u and reports what happened;
convergence is not guaranteed in general and non-convergence is a report
status, not an error.  Since f(0) = 0 makes u = 0 a fixed point, reports
carry a ``trivial`` flag (sup-norm below 1e-8) so a collapse to zero is
never presented as a positive solution.

``collocation_oracle`` solves the differential form directly -- banded
fourth-difference rows, one-sided boundary stencils, one dense row for
the nonlocal condition -- by damped Newton.  It shares nothing with the
kernel path beyond the grid, which is what makes cross-checking the two
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import quadrature
from .errors import NumericError, require_nonneg
from .exprlang import ExpressionFn, ExprEvalError
from .grid import GridFunction, NONNEG_SLACK
from .kernel import KernelContext, g_weight
from .linear import ConeCheck, cone_ratio, operator_matrix

TRIVIALITY_THRESHOLD = 1e-8
BOUND_SLACK = 1e-10

_D1_FORWARD = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0  # order 3
_D2_FORWARD = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0  # order 3
_D4_CENTRAL = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


@dataclass(frozen=True)
class SolveConfig:
    """Iteration knobs: grid resolution, stopping rule, relaxation, start."""

    n: int = 800
    tol: float = 1e-10
    max_iter: int = 500
    relaxation: float = 1.0
    u0: Union[str, float, np.ndarray, GridFunction] = "zero"

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 4, got {self.n}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError(f"relaxation must lie in (0, 1], got {self.relaxation}")

    def initial_guess(self) -> GridFunction:
        if isinstance(self.u0, GridFunction):
            if self.u0.n != self.n:
                raise ValueError(f"u0 grid n={self.u0.n} does not match n={self.n}")
            return self.u0
        if isinstance(self.u0, np.ndarray):
            return GridFunction(self.n, self.u0)
        if isinstance(self.u0, (int, float)):
            if self.u0 < 0:
                raise ValueError(f"constant initial guess must be >= 0, got {self.u0}")
            return GridFunction.constant(float(self.u0), self.n)
        if self.u0 == "zero":
            return GridFunction.zeros(self.n)
        raise ValueError(f"unknown initial guess descriptor {self.u0!r}")


@dataclass(frozen=True)
class OdeResidual:
    interior: float  # max |D4 u + f(u)| over interior stencil points
    bc: float  # max boundary-condition defect


@dataclass(frozen=True)
class BoundCheck:
    bound: float
    au_norm: float
    holds: bool


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction = field(repr=False)
    iterations: int
    delta_trace: list[float] = field(repr=False)
    residual_integral: float
    residual_ode: OdeResidual
    cone: ConeCheck
    trivial: bool
    norm_bound: float
    status: str  # converged | max_iter | diverged


@dataclass(frozen=True)
class CollocationResult:
    solution: GridFunction = field(repr=False)
    status: str  # converged | stagnated | max_iter
    iterations: int
    residual: float


def _f_values(u: GridFunction, f: ExpressionFn) -> np.ndarray:
    """f applied to grid values, clamping sub-slack negatives to 0.

    Raises :class:`HypothesisViolation` if a sampled f value is negative
    (f must map [0, inf) into [0, inf)) and ``ValueError`` if u dips
    below the nonnegativity slack.
    """
    if u.min() < -NONNEG_SLACK:
        raise ValueError(f"u has negative entries (min {u.min()}); operator needs u >= 0")
    xs = np.maximum(u.values, 0.0)
    out = f(xs)
    require_nonneg("H1", "f", xs, out)
    return out


def apply_A(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> GridFunction:
    """One application of the integral operator; output is >= 0 on the grid."""
    fvals = _f_values(u, f)
    out = operator_matrix(ctx, u.n) @ fvals
    if not np.all(np.isfinite(out)):
        raise NumericError("operator application overflowed")
    return GridFunction(u.n, out)


def residual_integral(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> float:
    """Sup-norm fixed-point defect ||u - A u|| on the grid."""
    return (u - apply_A(u, f, ctx)).sup_norm()


def endpoint_d1(values: np.ndarray, h: float, side: str) -> float:
    """First derivative at an endpoint, one-sided 4-point stencil, order 3."""
    if side == "left":
        return float(np.dot(_D1_FORWARD, values[:4])) / h
    return -float(np.dot(_D1_FORWARD, values[-1:-5:-1])) / h


def endpoint_d2_left(values: np.ndarray, h: float) -> float:
    """Second derivative at the left endpoint, one-sided 5-point, order 3."""
    return float(np.dot(_D2_FORWARD, values[:5])) / h**2


def fourth_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Central 5-point fourth difference at interior points 2..n-2."""
    v = values
    return (v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2] - 4.0 * v[3:-1] + v[4:]) / h**4


def interior_tolerance(n: int, u_norm: float) -> float:
    """Scale-aware bound for |D4 u + f(u)|.

    The fourth difference divides rounding noise in u by h^4, so the
    reachable residual grows like machine epsilon * n^4 * ||u||; below
    1e-6 the fixed floor applies.
    """
    return max(1e-6, 100.0 * np.finfo(float).eps * float(n) ** 4 * u_norm)


def residual_ode(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> OdeResidual:
    """Finite-difference defect of the differential form of the problem.

    interior: max over the interior stencil points of |D4 u + f(u)|.
    bc: max of |u'(0)|, |u'(1)|, |u''(0)| and |u(0) - integral a u|
    (grid quadrature).  Needs n >= 9.
    """
    if u.n < 9:
        raise ValueError(f"grid too coarse for fourth differences: n={u.n} < 9")
    fvals = _f_values(u, f)
    interior = float(np.max(np.abs(fourth_difference(u.values, u.h) + fvals[2:-2])))
    a_u = GridFunction(u.n, ctx.weight(u.ts) * u.values)
    bc = max(
        abs(endpoint_d1(u.values, u.h, "left")),
        abs(endpoint_d1(u.values, u.h, "right")),
        abs(endpoint_d2_left(u.values, u.h)),
        abs(u.values[0] - quadrature.integrate_grid(a_u, ctx.quad)),
    )
    return OdeResidual(interior=interior, bc=bc)


def _bound_value(u: GridFunction, fvals: np.ndarray, ctx: KernelContext) -> float:
    """(1/(1-alpha)) * integral of g(s) f(u(s)) ds by grid quadrature."""
    gf = np.dot(quadrature.grid_weights(u.n, ctx.quad), g_weight(u.ts) * fvals)
    return float(gf) / (1.0 - ctx.alpha)


def norm_bound_check(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> BoundCheck:
    """Check ||A u|| <= (1/(1-alpha)) * integral of g f(u), with 1e-10 slack."""
    fvals = _f_values(u, f)
    bound = _bound_value(u, fvals, ctx)
    au_norm = apply_A(u, f, ctx).sup_norm()
    return BoundCheck(bound=bound, au_norm=au_norm, holds=au_norm <= bound + BOUND_SLACK)


def picard_solve(f: ExpressionFn, ctx: KernelContext, config: SolveConfig) -> SolveReport:
    """Iterate u <- (1-w) u + w A u until the sup-norm update drops below tol.

    Non-convergence within max_iter is reported via ``status``
    ("max_iter"); overflow or NaN during iteration yields "diverged" with
    the last finite iterate.  Diagnostics are computed on the returned
    iterate either way.
    """
    u = config.initial_guess()
    omega = config.relaxation
    deltas: list[float] = []
    status = "max_iter"
    for _ in range(config.max_iter):
        try:
            au = apply_A(u, f, ctx)
        except (ExprEvalError, NumericError):
            status = "diverged"
            break
        new_values = (1.0 - omega) * u.values + omega * au.values
        if not np.all(np.isfinite(new_values)):
            status = "diverged"
            break
        delta = float(np.max(np.abs(new_values - u.values)))
        deltas.append(delta)
        u = GridFunction(config.n, new_values)
        if delta < config.tol:
            status = "converged"
            break

    try:
        fvals = _f_values(u, f)
        res_int = float(np.max(np.abs(u.values - operator_matrix(ctx, u.n) @ fvals)))
        res_ode = residual_ode(u, f, ctx)
        bound = _bound_value(u, fvals, ctx)
    except (ExprEvalError, NumericError):
        res_int, res_ode, bound = math.inf, OdeResidual(math.inf, math.inf), math.inf
    return SolveReport(
        solution=u,
        iterations=len(deltas),
        delta_trace=deltas,
        residual_integral=res_int,
        residual_ode=res_ode,
        cone=cone_ratio(u, ctx),
        trivial=u.sup_norm() < TRIVIALITY_THRESHOLD,
        norm_bound=bound,
        status=status,
    )


def _f_derivative(f: ExpressionFn, x: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    """df/du at x >= 0 by finite differences, one-sided near the domain edge u = 0."""
    central = x >= delta
    lower = np.where(central, x - delta, x)
    return (f(x + delta) - f(lower)) / np.where(central, 2.0 * delta, delta)


def _collocation_system(
    u: np.ndarray, f: ExpressionFn, ctx: KernelContext, aw: np.ndarray, h: float
) -> np.ndarray:
    """Scaled residual of the collocation equations (all rows O(||u||))."""
    n = len(u) - 1
    r = np.empty(n + 1)
    r[0] = np.dot(_D1_FORWARD, u[:4])  # h * u'(0)
    r[1] = np.dot(_D2_FORWARD, u[:5])  # h^2 * u''(0)
    fvals = f(np.maximum(u[2:-2], 0.0))
    r[2 : n - 1] = (
        u[:-4] - 4.0 * u[1:-3] + 6.0 * u[2:-2] - 4.0 * u[3:-1] + u[4:] + h**4 * fvals
    )
    r[n - 1] = -np.dot(_D1_FORWARD, u[-1:-5:-1])  # h * u'(1)
    r[n] = u[0] - np.dot(aw, u)
    return r


def _collocation_jacobian(
    u: np.ndarray, f: ExpressionFn, ctx: KernelContext, aw: np.ndarray, h: float
) -> scipy.sparse.csr_matrix:
    n = len(u) - 1
    jac = scipy.sparse.lil_matrix((n + 1, n + 1))
    jac[0, 0:4] = _D1_FORWARD
    jac[1, 0:5] = _D2_FORWARD
    fprime = _f_derivative(f, np.maximum(u[2:-2], 0.0))
    for offset, coeff in enumerate(_D4_CENTRAL):
        idx = np.arange(2, n - 1)
        jac[idx, idx + offset - 2] = coeff + (h**4 * fprime if offset == 2 else 0.0)
    jac[n - 1, n - 3 : n + 1] = -_D1_FORWARD[::-1]
    jac[n, :] = -aw
    jac[n, 0] += 1.0
    return jac.tocsr()


def collocation_oracle(
    f: ExpressionFn, ctx: KernelContext, config: SolveConfig
) -> CollocationResult:
    """Solve the differential form by damped Newton on a fourth-difference grid.

    Discretization: central fourth differences at interior points,
    one-sided order-3 stencils for u'(0), u''(0), u'(1), and one dense
    row u(0) = sum of w_j a(t_j) u_j for the nonlocal condition.  The
    interior rows are scaled by h^4 so every equation is O(||u||) and the
    Newton residual can be driven to rounding level.  Steps are halved
    (up to 30 times) whenever the residual would increase; stagnation at
    an unacceptable residual is reported, not raised.
    """
    n = config.n
    if n < 20:
        raise ValueError(f"collocation grid needs n >= 20, got n={n}")
    h = 1.0 / n
    aw = quadrature.grid_weights(n, ctx.quad) * ctx.weight(np.linspace(0.0, 1.0, n + 1))

    u = config.initial_guess().values.copy()
    residual = _collocation_system(u, f, ctx, aw, h)
    res_norm = float(np.max(np.abs(residual)))
    status = "max_iter"
    iterations = 0

    def floor_tol() -> float:
        # scaled-units image of the interior tolerance: a genuine defect
        # delta in D4 units shows up as h^4 * delta here, so converged
        # means h^4 * max(1e-6, 100 eps n^4 ||u||) ~ max(1e-6 h^4, 100 eps ||u||)
        u_norm = float(np.max(np.abs(u)))
        return max(1e-6 * h**4, 100.0 * np.finfo(float).eps * max(u_norm, 1e-3))

    for _ in range(min(config.max_iter, 60)):
        if res_norm <= floor_tol():
            status = "converged"
            break
        jac = _collocation_jacobian(u, f, ctx, aw, h)
        step = scipy.sparse.linalg.spsolve(jac.tocsc(), -residual)
        scale = 1.0
        improved = False
        for _ in range(30):
            candidate = u + scale * step
            try:
                cand_res = _collocation_system(candidate, f, ctx, aw, h)
                cand_norm = float(np.max(np.abs(cand_res)))
            except ExprEvalError:
                cand_norm = math.inf  # f overflowed at this step length; halve
            if np.isfinite(cand_norm) and cand_norm < res_norm:
                u, residual, res_norm = candidate, cand_res, cand_norm
                improved = True
                break
            scale /= 2.0
        iterations += 1
        if not improved:
            # stuck at the rounding floor of the residual evaluation
            status = "converged" if res_norm <= 10.0 * floor_tol() else "stagnated"
            break
    if res_norm <= floor_tol():
        status = "converged"
    return CollocationResult(
        solution=GridFunction(n, u), status=status, iterations=iterations, residual=res_norm
    )
