"""Fixed-point operator, Picard iteration, residual diagnostics, and an
independent finite-difference collocation oracle.

The nonlinear operator is

    (A u)(t) = integral of H(t, s) f(u(s)) ds

with H from the kernel module; u solves the beam problem iff u = A u.
``picard_solve`` iterates u <- A u, accelerated by Anderson mixing, and
reports what happened; convergence is not guaranteed in general (mixing
can also reach a fixed point that plain Picard iteration repels) and
non-convergence is a report
status, not an error.  Since f(0) = 0 makes u = 0 a fixed point, reports
carry a ``trivial`` flag (sup-norm below 1e-8 plus Picard's stopping error,
not diverged: the last finite iterate of a diverged run is no fixed point)
so a collapse to zero is never presented as a positive solution.

``collocation_oracle`` solves the differential form directly -- banded
fourth-difference rows, one-sided boundary stencils, one dense row for
the nonlocal condition -- by damped Newton with O(n) linear solves.  It
shares nothing with the kernel path beyond the grid, which is what makes
cross-checking the two meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import quadrature
from .errors import require_nonneg
from .exprlang import ExpressionFn, ExprEvalError
from .grid import GridFunction, NONNEG_SLACK
from .kernel import KernelContext, g_weight, sample_weight
from .linear import ConeCheck, cone_ratio, operator_matrix

TRIVIALITY_THRESHOLD = 1e-8
BOUND_SLACK = 1e-10
INTERIOR_FLOOR = 1e-6  # the absolute part of interior_tolerance
ORACLE_N_MAX = 400  # the oracle's most accurate grid: rounding grows like eps n^4 above it
MAX_GRID_N = 2**20  # a solve takes about 190 bytes per node: under 0.3 GB at the bound
ANDERSON_DEPTH = 5  # images that picard_solve mixes into each iterate

_D1_FORWARD = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0  # order 3
_D2_FORWARD = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0  # order 3
_D4_CENTRAL = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


@dataclass(frozen=True)
class SolveConfig:
    """Iteration knobs: grid resolution, stopping rule, and the constant
    initial guess u0 (finite, >= 0)."""

    n: int = 800
    tol: float = 1e-10
    max_iter: int = 500
    u0: float = 0.0

    def __post_init__(self):
        if self.n < 20 or self.n % 2 != 0:  # 20: the collocation oracle's smallest grid
            raise ValueError(f"grid resolution must be even and >= 20, got {self.n}")
        if self.n > MAX_GRID_N:
            raise ValueError(f"grid resolution must be at most {MAX_GRID_N}, got {self.n}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.u0) and self.u0 >= 0.0):
            raise ValueError(f"u0 must be finite and >= 0, got {self.u0}")

    def initial_guess(self) -> GridFunction:
        return GridFunction.constant(self.u0, self.n)


@dataclass(frozen=True)
class OdeResidual:
    interior: float  # max |D4 u + f(u)| over interior stencil points
    bc: float  # max boundary-condition defect

    @classmethod
    def of(cls, rows: np.ndarray | None) -> "OdeResidual":
        """The maxima of the rows of :func:`_ode_defects`; inf without rows (f failed)."""
        if rows is None:
            return cls(interior=math.inf, bc=math.inf)
        return cls(interior=float(np.max(rows[2:-2])), bc=float(np.max(rows[[0, 1, -2, -1]])))


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
    fvals: np.ndarray | None = field(repr=False)  # f of the returned iterate; None: f failed
    au: np.ndarray | None = field(repr=False)  # A u of the returned iterate; None: overflowed
    ode_defects: np.ndarray | None = field(repr=False)  # its _ode_defects rows; None: f failed
    bound_at_start: BoundCheck  # the norm bound check of the initial guess


@dataclass(frozen=True)
class CollocationResult:
    solution: GridFunction = field(repr=False)
    status: str  # converged | stagnated | max_iter | diverged
    iterations: int
    residual: float
    residual_trace: list[float] = field(repr=False)  # initial, then one per step
    halvings: list[int] = field(repr=False)  # step halvings per Newton step
    error_estimate: float = 0.0  # sup of a Newton step at the solution; 0: not computed


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


def apply_A(
    u: GridFunction, f: ExpressionFn, op: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One application of the integral operator: (f(u), A u) from one
    evaluation of f, with ``op`` from ``operator_matrix(ctx, u.n)`` (build it
    once per grid).  A u is >= 0 on the grid, and None where the apply
    overflows; both are None where f fails at u.  Raises as ``_f_values``."""
    try:
        fvals = _f_values(u, f)
    except ExprEvalError:
        return None, None
    au = op(fvals)
    return fvals, au if np.isfinite(au).all() else None


def interior_tolerance(n: int, u_norm: float) -> float:
    """Scale-aware bound for |D4 u + f(u)|.

    The fourth difference divides rounding noise in u by h^4, so the
    reachable residual grows like machine epsilon * n^4 * ||u||; below
    ``INTERIOR_FLOOR`` the fixed floor applies.
    """
    return max(INTERIOR_FLOOR, 100.0 * np.finfo(float).eps * float(n) ** 4 * u_norm)


def _nonlocal_weights(ctx: KernelContext, n: int) -> np.ndarray:
    """Weights aw of the discrete nonlocal condition u(0) = sum of aw_j u_j
    (grid Simpson weights times a at the nodes, held to (H2) there)."""
    return quadrature.grid_weights(n) * sample_weight(ctx.weight, np.linspace(0.0, 1.0, n + 1))[0]


def _ode_defects(
    u: GridFunction, fvals: np.ndarray | None, ctx: KernelContext
) -> np.ndarray | None:
    """Absolute rows of ``_collocation_system`` at u, given fvals = f(u), in
    differential units: |u'(0)|, |u''(0)|, |D4 u + f(u)| at nodes 2..n-2,
    |u'(1)| and |u(0) - sum of aw u|; None where f failed (fvals None)."""
    if fvals is None:
        return None
    h = u.h
    rows = np.abs(_collocation_system(u.values, fvals[2:-2], _nonlocal_weights(ctx, u.n), h))
    rows[[0, -2]] /= h
    rows[1] /= h**2
    rows[2:-2] /= h**4
    return rows


def residual_ode(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> OdeResidual:
    """Finite-difference defect of the differential form of the problem.

    interior: max over the interior stencil points of |D4 u + f(u)|.
    bc: max of |u'(0)|, |u'(1)|, |u''(0)| and |u(0) - integral a u|
    (grid quadrature).  Needs n >= 9.
    """
    if u.n < 9:
        raise ValueError(f"grid too coarse for fourth differences: n={u.n} < 9")
    return OdeResidual.of(_ode_defects(u, _f_values(u, f), ctx))


def _bound_check(u: GridFunction, fvals: np.ndarray | None, au: np.ndarray | None,
                 ctx: KernelContext) -> BoundCheck:
    """``norm_bound_check`` of u from ``apply_A``'s (f(u), A u) at u."""
    if fvals is None:
        return BoundCheck(bound=math.inf, au_norm=math.inf, holds=False)
    bound = float(np.dot(quadrature.grid_weights(u.n), g_weight(u.ts) * fvals)) / (1.0 - ctx.alpha)
    au_norm = math.inf if au is None else float(np.max(np.abs(au)))
    return BoundCheck(bound=bound, au_norm=au_norm, holds=au_norm <= bound + BOUND_SLACK)


def norm_bound_check(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> BoundCheck:
    """Check ||A u|| <= (1/(1-alpha)) * integral of g f(u) (grid quadrature),
    with 1e-10 slack; an overflow of A u fails it with au_norm inf, a failure
    of f with every field inf."""
    return _bound_check(u, *apply_A(u, f, operator_matrix(ctx, u.n)), ctx)


def _contraction(r: float, last_delta: float) -> float:
    """Picard's contraction estimate: residual ||u - A u|| over last step, at most 0.999."""
    return min(r / last_delta, 0.999) if r > 0 else 0.0


class _AndersonMixer:
    """Anderson mixing (Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): of the last ``ANDERSON_DEPTH`` images
    g_j = A f(x_j), the combination with coefficients summing to 1 whose
    residuals r_j = g_j - x_j combine to the least 2-norm.

    It is solved in the differences of consecutive images and residuals,
    each pair scaled by the sup norm of its residual difference (an exact
    change of variables that keeps the Gram matrix finite at any scale).
    Each step adds one difference, takes the products of the new difference
    and of the residual with the ring buffer, and solves the normal
    equations."""

    def __init__(self, size: int):
        depth = ANDERSON_DEPTH - 1
        self.dr = np.empty((depth, size))
        self.dg = np.empty((depth, size))
        self.gram = np.empty((depth, depth))
        self.count = 0  # differences added since the last clear
        self.last: tuple[np.ndarray, np.ndarray] | None = None  # (g, r) of the previous iterate

    def clear(self) -> None:
        self.count = 0

    def mix(self, image: np.ndarray, residual: np.ndarray, scale: float) -> np.ndarray | None:
        """The next iterate, clamped at 0, after the image and residual of
        sup norm ``scale`` > 0 at the current one; None, for the plain step
        to the image, where no difference is held or the combination is not
        finite (which clears the history)."""
        last, self.last = self.last, (image, residual)
        if last is None:
            return None
        slot = self.count % len(self.dr)
        self.count += 1
        k = min(self.count, len(self.dr))
        with np.errstate(all="ignore"):  # overflow, or a repeated iterate, is caught below
            dr = np.subtract(residual, last[1], out=self.dr[slot])
            inv = 1.0 / np.abs(dr).max()
            dr *= inv
            np.multiply(image - last[0], inv, out=self.dg[slot])
            self.gram[slot, :k] = self.gram[:k, slot] = self.dr[:k] @ dr
            try:
                eta = np.linalg.solve(self.gram[:k, :k], self.dr[:k] @ (residual / scale))
            except np.linalg.LinAlgError:
                eta = np.full(k, math.nan)
            x = eta @ self.dg[:k]
            x *= -scale
            x += image
        if not np.isfinite(x).all():
            self.clear()
            return None
        return np.maximum(x, 0.0, out=x)


def picard_solve(f: ExpressionFn, ctx: KernelContext, config: SolveConfig) -> SolveReport:
    """Find a fixed point of u = A f(u) by Anderson-mixed Picard iteration,
    until the sup norm of A f(x) - x at an iterate x drops below tol; the
    returned u is A f(x), one plain Picard step on.

    Non-convergence within max_iter is reported via ``status``
    ("max_iter").  Where f fails or A overflows at a mixed iterate, the
    plain image A f(x) is the next iterate instead and the mixing history
    is cleared; where it fails there too, the status is "diverged", with
    that last finite image.  Each iterate, the initial guess included,
    costs one ``apply_A``, and the returned u one more, from which the
    report is built: its norm bound, A u and ODE rows, which read inf (or
    None) where f or A overflows.  An a that fails or is negative at a grid
    node raises :class:`HypothesisViolation`.
    """
    op = operator_matrix(ctx, config.n)
    x = u = config.initial_guess()
    fvals, au = apply_A(x, f, op)
    bound_at_start = _bound_check(x, fvals, au, ctx)
    mixer = _AndersonMixer(config.n + 1)
    deltas: list[float] = []
    status = "diverged"
    while au is not None:
        image, residual = au, au - x.values
        deltas.append(float(np.abs(residual).max()))
        done = deltas[-1] < config.tol or len(deltas) == config.max_iter
        mixed = None if done else mixer.mix(image, residual, deltas[-1])
        if mixed is not None:
            x = GridFunction(config.n, mixed)
            fvals, au = apply_A(x, f, op)
            if au is not None:
                continue
            mixer.clear()
        x = u = GridFunction(config.n, image)  # the plain step, and the report's apply
        fvals, au = apply_A(x, f, op)
        if done:
            status = "converged" if deltas[-1] < config.tol else "max_iter"
            break

    defects = _ode_defects(u, fvals, ctx)
    r = math.inf if au is None else float(np.max(np.abs(u.values - au)))
    # the stopping rule's a-posteriori error bounds nothing unless the last step contracted
    contracted = math.isfinite(r) and r < deltas[-1]  # a finite r has a last step
    stop_error = r / (1.0 - _contraction(r, deltas[-1])) if contracted else 0.0
    return SolveReport(
        solution=u,
        iterations=len(deltas),
        delta_trace=deltas,
        residual_integral=r,
        residual_ode=OdeResidual.of(defects),
        cone=cone_ratio(u, ctx),
        trivial=status != "diverged" and u.sup_norm() < TRIVIALITY_THRESHOLD + stop_error,
        norm_bound=_bound_check(u, fvals, au, ctx).bound,
        status=status,
        fvals=fvals, au=au,
        ode_defects=defects,
        bound_at_start=bound_at_start,
    )


def agreement_bound(report: SolveReport, colloc: CollocationResult, f: ExpressionFn,
                    ctx: KernelContext, config: SolveConfig, agreement: float) -> float | None:
    """The largest sup distance, on the oracle's nodes, between its solution u_o
    (n_o intervals) and Picard's Nystrom values A f(u), within r of u on a shared
    node, at which the two, converged, count as one fixed point: 2 (r + d_o) /
    (1 - theta) + 5 ||u_o - u_2o||.  The first part is twice the a-posteriori
    error of the two stopping rules: r = ||u - A u|| is Picard's residual and
    theta = r / (its last step), at most 0.999, its contraction; d_o bounds the
    oracle's error from its final defect, its residual in D4 units (times n_o^4)
    over 72 (1 - alpha), the bound on ||A||; the residual counts as at least the
    smallest subnormal, since h_o^4 f can underflow in the scaled rows, where a
    residual of 0 proves nothing.  That bound ignores f', so near mu1 (I - A f'
    nearly singular) d_o is the oracle's Newton estimate of its error where that
    is larger.  The second measures the oracle's discretization
    error without Picard: u_2o, an oracle solve on 2 n_o intervals from the same
    initial guess, on the n_o nodes.  At order p, Richardson's estimate of u_o's
    error is 2^p / (2^p - 1) times their distance, 4/3 at the oracle's p = 2 and
    at most 2 for p >= 1; 5 keeps a margin of 1.5 on grids too coarse for the
    order to show (2.7 at n_o = 20, f' = 170).  u_2o is solved only where
    ``agreement`` exceeds the first part; None where it does not converge."""
    n_o = colloc.solution.n
    r = report.residual_integral
    theta = _contraction(r, report.delta_trace[-1])
    residual = max(colloc.residual, np.finfo(float).smallest_subnormal)
    d_o = max(residual * float(n_o) ** 4 / (72.0 * (1.0 - ctx.alpha)), colloc.error_estimate)
    stopping = 2.0 * (r + d_o) / (1.0 - theta)
    if agreement <= stopping:
        return stopping
    fine = collocation_oracle(f, ctx, replace(config, n=2 * n_o))
    distance = float(np.max(np.abs(colloc.solution.values - fine.solution.values[::2])))
    return stopping + 5.0 * distance if fine.status == "converged" else None


def _f_derivative(f: ExpressionFn, x: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    """df/du at x >= 0 by finite differences of step delta * max(1, x), one-sided near 0."""
    step = delta * np.maximum(1.0, x)
    central = x >= step
    lower = np.where(central, x - step, x)
    return (f(x + step) - f(lower)) / np.where(central, 2.0 * step, step)


def _collocation_system(u: np.ndarray, fvals: np.ndarray, aw: np.ndarray, h: float) -> np.ndarray:
    """Scaled residual of the collocation equations (all rows O(||u||)),
    given f at the interior nodes 2..n-2; the one definition of the
    discrete problem."""
    n = len(u) - 1
    r = np.empty(n + 1)
    r[0] = np.dot(_D1_FORWARD, u[:4])  # h * u'(0)
    r[1] = np.dot(_D2_FORWARD, u[:5])  # h^2 * u''(0)
    r[2 : n - 1] = (
        u[:-4] - 4.0 * u[1:-3] + 6.0 * u[2:-2] - 4.0 * u[3:-1] + u[4:] + h**4 * fvals
    )
    r[n - 1] = -np.dot(_D1_FORWARD, u[-1:-5:-1])  # h * u'(1)
    r[n] = u[0] - np.dot(aw, u)
    return r


def _newton_step(
    u: np.ndarray, residual: np.ndarray, f: ExpressionFn, aw: np.ndarray, h: float
) -> np.ndarray | None:
    """Solve J step = -residual for the Jacobian J of ``_collocation_system``
    in O(n); None where f fails at the probe of f'.  Rows 0..n-1 of J are
    banded (2 below, 3 above the diagonal) in LAPACK storage ab[3 + i - j, j];
    the dense row J[n] = e_0 - aw is replaced by e_n and restored by Sherman-Morrison."""
    import scipy.linalg  # deferred: only this step needs scipy, and its import is slow

    try:
        fprime = _f_derivative(f, np.maximum(u[2:-2], 0.0))
    except ExprEvalError:
        return None
    n = len(u) - 1
    m = np.arange(5)
    ab = np.zeros((6, n + 1))
    ab[3 - m[:4], m[:4]] = _D1_FORWARD  # row 0
    ab[4 - m, m] = _D2_FORWARD  # row 1
    for k, coeff in zip(range(-2, 3), _D4_CENTRAL):  # rows 2..n-2, band j - i = k
        ab[3 - k, 2 + k : n - 1 + k] = coeff
    ab[3, 2 : n - 1] += h**4 * fprime
    ab[5 - m[:4], n - 3 + m[:4]] = -_D1_FORWARD[::-1]  # row n-1
    ab[3, n] = 1.0  # row n: e_n
    rhs = np.column_stack((-residual, np.zeros(n + 1)))
    rhs[n, 1] = 1.0
    y, z = scipy.linalg.solve_banded((2, 3), ab, rhs, check_finite=False).T
    vy, vz = (w[0] - np.dot(aw, w) - w[n] for w in (y, z))  # v = J[n] - e_n
    return y - z * (vy / (1.0 + vz))


def collocation_oracle(
    f: ExpressionFn, ctx: KernelContext, config: SolveConfig
) -> CollocationResult:
    """Solve the differential form by damped Newton on a fourth-difference grid.

    Discretization: central fourth differences at interior points,
    one-sided order-3 stencils for u'(0), u''(0), u'(1), and one dense
    row u(0) = sum of w_j a(t_j) u_j for the nonlocal condition.  The
    interior rows are scaled by h^4 so every equation is O(||u||) and the
    Newton residual can be driven to rounding level.  Steps are halved
    (up to 30 times) until the residual decreases, an f failure counting
    as an infinite residual; stagnation at an unacceptable residual is
    reported, not raised.  Where the floor's absolute part decides, one
    more full step past it is taken, and counted, where it lowers the
    residual, and a Newton step at the returned iterate gives
    ``error_estimate``.  When f fails at the initial guess the status is
    "diverged", with 0 steps and an infinite residual; when it fails where
    a step probes f', "diverged", with the steps taken so far.
    """
    n = config.n
    h = 1.0 / n
    aw = _nonlocal_weights(ctx, n)

    def system(v: np.ndarray) -> tuple[np.ndarray | None, float]:
        """The scaled rows at v and their largest magnitude; (None, inf) where f fails."""
        try:
            rows = _collocation_system(v, f(np.maximum(v[2:-2], 0.0)), aw, h)
        except ExprEvalError:
            return None, math.inf
        return rows, float(np.max(np.abs(rows)))

    def floor_tol() -> float:
        # a defect delta in D4 units shows up as h^4 * delta in the scaled rows
        return h**4 * interior_tolerance(n, float(np.max(np.abs(u))))

    u = config.initial_guess().values.copy()
    residual, res_norm = system(u)
    status = "diverged" if residual is None else "max_iter"
    trace, halvings = [res_norm], []
    max_steps = min(config.max_iter, 60)
    while status == "max_iter" and len(halvings) < max_steps and res_norm > floor_tol():
        step = _newton_step(u, residual, f, aw, h)
        if step is None:
            status = "diverged"
            break
        for halving in range(30):
            candidate = u + 0.5**halving * step
            cand_res, cand_norm = system(candidate)
            if cand_norm < res_norm:  # false for inf and nan
                u, residual, res_norm = candidate, cand_res, cand_norm
                break
        else:  # no step length decreases the residual: at its rounding floor, or stuck
            halving = 30
            status = "converged" if res_norm <= 10.0 * floor_tol() else "stagnated"
        halvings.append(halving)
        trace.append(res_norm)
    floor = floor_tol()
    if res_norm <= floor:
        status = "converged"
    # the floor's absolute part stops a load below INTERIOR_FLOOR at the initial
    # guess, and near mu1 (I - A f' nearly singular) far from the solution: where
    # it decides, one more full step is kept where it lowers the residual, and the
    # step at the returned iterate is Newton's estimate of its error
    error_estimate = 0.0
    if 0.0 < res_norm <= floor and floor == h**4 * INTERIOR_FLOOR:
        step = _newton_step(u, residual, f, aw, h)
        cand_res, cand_norm = (None, math.inf) if step is None else system(u + step)
        if cand_norm < res_norm:
            u, residual, res_norm = u + step, cand_res, cand_norm
            halvings.append(0)
            trace.append(res_norm)
            step = _newton_step(u, residual, f, aw, h)
        error_estimate = 0.0 if step is None else float(np.max(np.abs(step)))
    return CollocationResult(
        solution=GridFunction(n, u), status=status, iterations=len(halvings),
        residual=res_norm, residual_trace=trace, halvings=halvings,
        error_estimate=error_estimate,
    )
