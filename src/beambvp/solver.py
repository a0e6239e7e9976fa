"""Fixed-point operator, Picard iteration, residual diagnostics, and an
independent Chebyshev collocation oracle.

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

``collocation_oracle`` solves the differential form directly -- u'''' +
f(u) = 0 collocated at ``ORACLE_N`` + 1 Chebyshev points, with bordering
rows for the boundary conditions and Clenshaw-Curtis weights for the
nonlocal one -- by damped Newton with dense (N + 1) x (N + 1) solves, and
returns its interpolant on the solve's grid.  It shares nothing with the
kernel path beyond the weight a, which is what makes cross-checking the
two meaningful; ``agreement_bound`` decides when they found one fixed
point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature
from .errors import require_nonneg
from .exprlang import ExpressionFn, ExprEvalError
from .grid import GridFunction, NONNEG_SLACK
from .kernel import KernelContext, g_envelope, sample_weight
from .linear import ConeCheck, cone_ratio, operator_matrix

TRIVIALITY_THRESHOLD = 1e-8
BOUND_SLACK = 1e-10
INTERIOR_FLOOR = 1e-6  # the absolute part of interior_tolerance
ORACLE_N = 24  # the oracle's Chebyshev degree: D4's entries grow like N^8, and 24 measured best
NEWTON_RTOL = 1e-8  # the oracle's Newton stop, relative to sup |u|: 30x its rounding floor near mu1
FD_STEP = 1e-6  # the relative step of the oracle's finite-difference f'
MAX_GRID_N = 2**20  # a solve takes about 190 bytes per node: under 0.3 GB at the bound
ANDERSON_DEPTH = 5  # images that picard_solve mixes into each iterate

_D1_FORWARD = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0  # order 3
_D2_FORWARD = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0  # order 3
# (1 - cos(pi j / N)) / 2 by math.sin: numpy's sin kernels would page in at import (0.3 MB)
CHEBYSHEV_POINTS = np.array([math.sin(math.pi * j / (2 * ORACLE_N)) ** 2 for j in range(ORACLE_N + 1)])


@functools.cache  # on the oracle's first call: commands without one make no matrix product
def _chebyshev() -> tuple[np.ndarray, ...]:
    """At CHEBYSHEV_POINTS: d/dt, its square and fourth power, the map from values
    to the interpolant's Chebyshev coefficients in x = 1 - 2t, and Clenshaw-Curtis
    weights (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ``cheb``, ``clencurt``)."""
    n, j = ORACLE_N, np.arange(ORACLE_N + 1)
    ends = (j == 0) | (j == n)
    # t_i - t_j as a product of sines, without cancellation
    gaps = np.sin(np.pi * (j[:, None] + j) / (2 * n)) * np.sin(np.pi * (j[:, None] - j) / (2 * n))
    np.fill_diagonal(gaps, 1.0)
    c = np.where(ends, 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / gaps
    np.fill_diagonal(d, 0.0)
    d[j, j] = -d.sum(axis=1)
    half = np.where(ends, 0.5, 1.0)
    to_coeffs = (2.0 / n) * half[:, None] * np.cos(np.pi * np.outer(j, j) / n) * half
    moments = np.zeros(n + 1)  # the integrals of T_j(1 - 2t) over [0, 1]
    moments[::2] = 1.0 / (1.0 - j[::2] ** 2)
    d2 = d @ d
    return d, d2, d2 @ d2, to_coeffs, moments @ to_coeffs


@dataclass(frozen=True)
class SolveConfig:
    """Iteration knobs: grid resolution, stopping rule, and the constant
    initial guess u0 (finite, >= 0)."""

    n: int = 800
    tol: float = 1e-10
    max_iter: int = 500
    u0: float = 0.0

    def __post_init__(self):
        if self.n < 20 or self.n % 2 != 0:  # 20: the documented floor, kept so no exit code moves
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
    au: np.ndarray | None = field(repr=False)  # A u of the returned iterate; None: overflowed
    ode_defects: np.ndarray | None = field(repr=False)  # its _ode_defects rows; None: f failed
    bound_at_start: BoundCheck  # the norm bound check of the initial guess


@dataclass(frozen=True)
class CollocationResult:
    solution: GridFunction = field(repr=False)  # its interpolant on the solve's grid
    status: str  # converged | stagnated | max_iter | diverged
    iterations: int
    residual: float  # sup of the row-equilibrated collocation equations
    residual_trace: list[float] = field(repr=False)  # initial, then one per step
    halvings: list[int] = field(repr=False)  # step halvings per Newton step
    error_estimate: float  # sup of the last Newton step, d_o; inf: none solved
    amplification: float  # sup norm of (I - A f')^-1 at the solution; inf: not converged


def apply_A(
    v: np.ndarray, f: ExpressionFn, op: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One application of the integral operator to grid values v: (f(v), A v)
    from one evaluation of f at v with sub-slack negatives clamped to 0, with
    ``op`` from ``operator_matrix(ctx, n)`` (build it once per grid).  A v is
    >= 0 on the grid, and None where the apply overflows; both are None where
    f fails.  Raises ``ValueError`` if v dips below the nonnegativity slack and
    :class:`HypothesisViolation` if a sampled f value is negative (f must map
    [0, inf) into [0, inf)).  v is left unchanged; both arrays are new."""
    if v.min() < -NONNEG_SLACK:
        raise ValueError(f"u has negative entries (min {float(v.min())}); operator needs u >= 0")
    xs = np.maximum(v, 0.0)
    try:
        fvals = f(xs)
    except ExprEvalError:
        return None, None
    require_nonneg("H1", "f", xs, fvals)
    au = op(fvals)
    return fvals, au if np.isfinite(au).all() else None


def interior_tolerance(n: int, u_norm: float) -> float:
    """Scale-aware bound for |D4 u + f(u)|.

    The fourth difference divides rounding noise in u by h^4, so the
    reachable residual grows like machine epsilon * n^4 * ||u||; below
    ``INTERIOR_FLOOR`` the fixed floor applies.
    """
    return max(INTERIOR_FLOOR, 100.0 * float(np.finfo(float).eps) * float(n) ** 4 * u_norm)


class _Discretization(NamedTuple):
    """The u-independent parts of one (context, n) grid."""

    op: Callable[[np.ndarray], np.ndarray]
    weights: np.ndarray  # grid Simpson weights
    g: np.ndarray  # the envelope g at the nodes
    aw: np.ndarray  # weights of the discrete nonlocal condition u(0) = sum of aw_j u_j


@functools.lru_cache(maxsize=1)  # contexts hash by identity: an entry serves only its own
def _discretization(ctx: KernelContext, n: int) -> _Discretization:
    """The discretization of the last (context, n) asked for, built whole on
    its first call and shared by every call on that pair; one is held at a
    time.  aw is the grid Simpson weights times a at the nodes, so an a that
    fails or is negative at a node raises :class:`HypothesisViolation` here."""
    ts = np.linspace(0.0, 1.0, n + 1)
    weights = quadrature.grid_weights(n)
    op = operator_matrix(ctx, n)
    return _Discretization(op, weights, g_envelope(ts), weights * sample_weight(ctx.weight, ts)[0])


def _ode_defects(u: GridFunction, fvals: np.ndarray | None, ctx: KernelContext) -> np.ndarray | None:
    """The finite-difference equations at u, given fvals = f(u), each formed h-scaled
    and then divided by its power of h: |u'(0)|, |u''(0)|, |D4 u + f(u)| at nodes
    2..n-2, |u'(1)| and |u(0) - sum of aw u|; None where f failed (fvals None).
    Near the float limit a row overflows to inf or nan, without a warning."""
    if fvals is None:
        return None
    v, h, aw = u.values, u.h, _discretization(ctx, u.n).aw
    rows = np.empty(u.n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0] = np.dot(_D1_FORWARD, v[:4])  # h * u'(0)
        rows[1] = np.dot(_D2_FORWARD, v[:5])  # h^2 * u''(0)
        rows[2:-2] = v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2] - 4.0 * v[3:-1] + v[4:] + h**4 * fvals[2:-2]
        rows[-2] = np.dot(_D1_FORWARD, v[-1:-5:-1])  # -h * u'(1)
        rows[-1] = v[0] - np.dot(aw, v)
        np.abs(rows, out=rows)
        rows[[0, -2]] /= h
        rows[1] /= h**2
        rows[2:-2] /= h**4
    return rows


def residual_ode(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> OdeResidual:
    """Finite-difference defect of the differential form of the problem.

    interior: max over the interior stencil points of |D4 u + f(u)|.
    bc: max of |u'(0)|, |u'(1)|, |u''(0)| and |u(0) - integral a u|
    (grid quadrature).  Both read inf where f fails at u; f(u) is taken from
    ``apply_A``, which raises as documented there.  Needs n >= 9.
    """
    if u.n < 9:
        raise ValueError(f"grid too coarse for fourth differences: n={u.n} < 9")
    fvals, _ = apply_A(u.values, f, _discretization(ctx, u.n).op)
    return OdeResidual.of(_ode_defects(u, fvals, ctx))


def _bound_check(fvals: np.ndarray | None, au: np.ndarray | None, ctx: KernelContext) -> BoundCheck:
    """``norm_bound_check`` from ``apply_A``'s (f(u), A u) at u, on n = len(fvals) - 1."""
    if fvals is None:
        return BoundCheck(bound=math.inf, au_norm=math.inf, holds=False)
    grid = _discretization(ctx, len(fvals) - 1)
    bound = float(np.dot(grid.weights, grid.g * fvals)) / (1.0 - ctx.alpha)
    au_norm = math.inf if au is None else float(np.max(np.abs(au)))
    return BoundCheck(bound=bound, au_norm=au_norm, holds=au_norm <= bound + BOUND_SLACK)


def norm_bound_check(u: GridFunction, f: ExpressionFn, ctx: KernelContext) -> BoundCheck:
    """Check ||A u|| <= (1/(1-alpha)) * integral of g f(u) (grid quadrature),
    with 1e-10 slack; an overflow of A u fails it with au_norm inf, a failure
    of f with every field inf."""
    return _bound_check(*apply_A(u.values, f, _discretization(ctx, u.n).op), ctx)


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
    node raises :class:`HypothesisViolation` before the first step.
    """
    op = _discretization(ctx, config.n).op
    x = config.initial_guess().values
    fvals, au = apply_A(x, f, op)
    bound_at_start = _bound_check(fvals, au, ctx)
    mixer = _AndersonMixer(config.n + 1)
    deltas: list[float] = []
    status = "diverged"
    while au is not None:
        image, residual = au, au - x
        deltas.append(float(np.abs(residual).max()))
        done = deltas[-1] < config.tol or len(deltas) == config.max_iter
        mixed = None if done else mixer.mix(image, residual, deltas[-1])
        if mixed is not None:
            x = mixed
            fvals, au = apply_A(x, f, op)
            if au is not None:
                continue
            mixer.clear()
        x = image  # the plain step, and the report's apply
        fvals, au = apply_A(x, f, op)
        if done:
            status = "converged" if deltas[-1] < config.tol else "max_iter"
            break

    u = GridFunction(config.n, x)  # the returned iterate: u0 or the last plain step
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
        norm_bound=_bound_check(fvals, au, ctx).bound,
        status=status,
        au=au,
        ode_defects=defects,
        bound_at_start=bound_at_start,
    )


def agreement_bound(report: SolveReport, colloc: CollocationResult, f: ExpressionFn,
                    ctx: KernelContext, agreement: float) -> float | None:
    """The largest sup distance, on the grid, between the oracle's interpolant
    u_o and Picard's Nystrom values A f(u) at which the two, converged, count
    as one fixed point.  First 2 (r + d_o) / (1 - theta), twice the stopping
    rules' errors: r = ||u - A u||, theta = r / (Picard's last step), at most
    0.999, and d_o the oracle's last Newton step.  Only where ``agreement``
    exceeds it, Picard's map is applied to u_o by the solve's own operator:
    e = |A f(u_o) - u_o| on the grid is Picard's discretization error there,
    plus the oracle's, and with the oracle's K = ||(I - A f')^-1|| the bound
    is 2 (K (r + e) + d_o), which also stands in for a theta that Anderson
    mixing makes understate the contraction.  None where f fails or A
    overflows at u_o."""
    r = report.residual_integral
    theta = _contraction(r, report.delta_trace[-1])
    stopping = 2.0 * (r + colloc.error_estimate) / (1.0 - theta)
    if agreement <= stopping:
        return stopping
    u_o = colloc.solution
    # not apply_A: u_o is no iterate (it may dip below the slack), and an (H1) raise comes after the CSV
    try:
        nystrom = _discretization(ctx, u_o.n).op(f(np.maximum(u_o.values, 0.0)))
    except ExprEvalError:
        return None
    if not np.isfinite(nystrom).all():
        return None
    e = float(np.max(np.abs(nystrom - u_o.values)))
    return 2.0 * (colloc.amplification * (r + e) + colloc.error_estimate)


def _f_derivative(f: ExpressionFn, x: np.ndarray) -> np.ndarray:
    """df/du at x >= 0 by finite differences of step FD_STEP * max(1, x), one-sided near 0."""
    step = FD_STEP * np.maximum(1.0, x)
    central = x >= step
    lower = np.where(central, x - step, x)
    return (f(x + step) - f(lower)) / np.where(central, 2.0 * step, step)


def collocation_oracle(
    f: ExpressionFn, ctx: KernelContext, config: SolveConfig
) -> CollocationResult:
    """Solve the differential form by damped Newton at the Chebyshev points.

    u'''' + f(u) = 0 at points 2..N-2 (N = ``ORACLE_N``), with bordering rows
    u'(0), u''(0), u'(1) and u(0) - sum of w_j a(t_j) u_j (Clenshaw-Curtis w).
    Every row is divided by its sup norm (condition number 7.7e5 for a = t^2,
    f' = 0; 1.2e12 with only the fourth-derivative rows scaled).  Newton, f'
    by finite differences, stops where its step is at most tol +
    ``NEWTON_RTOL`` sup |u|, and takes that step too where it lowers the
    residual; a step is halved (up to 30 times) until the residual drops, an
    f failure counting as an infinite residual, else it is "stagnated".
    Where f fails or a row overflows at u0: "diverged", 0 steps, residual
    inf; where f fails at a probe of f': "diverged", with the steps so far.
    The solution is the Chebyshev interpolant of the values, on ``config``'s grid.
    """
    d1, d2, d4, to_coeffs, weights = _chebyshev()
    inner = np.arange(2, ORACLE_N - 1)
    rows = np.vstack((d1[0], d2[0], d4[inner], d1[-1], -weights))
    rows[-1] *= sample_weight(ctx.weight, CHEBYSHEV_POINTS)[0]
    rows[-1, 0] += 1.0
    scale = 1.0 / np.max(np.abs(rows), axis=1)
    rows *= scale[:, None]

    def system(v: np.ndarray) -> tuple[np.ndarray | None, float]:
        """The equilibrated rows at v and their largest magnitude; (None, inf)
        where f fails or a row is not finite."""
        try:
            load = f(np.maximum(v[inner], 0.0))
        except ExprEvalError:
            return None, math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            res = rows @ v
            res[inner] += scale[inner] * load
            norm = float(np.max(np.abs(res)))
        return (res, norm) if math.isfinite(norm) else (None, math.inf)

    u = np.full(ORACLE_N + 1, config.u0)
    residual, res_norm = system(u)
    status = "diverged" if residual is None else "max_iter"
    trace, halvings = [res_norm], []
    error_estimate = amplification = math.inf
    while status == "max_iter":
        try:
            fprime = _f_derivative(f, np.maximum(u[inner], 0.0))
        except ExprEvalError:
            status = "diverged"
            break
        jacobian = rows.copy()
        jacobian[inner, inner] += scale[inner] * fprime
        step = np.linalg.solve(jacobian, -residual)
        error_estimate = float(np.max(np.abs(step)))
        stop = error_estimate <= config.tol + NEWTON_RTOL * float(np.max(np.abs(u)))
        if stop:
            status = "converged"
            # (I - A f')^-1 = J^-1 L, with J and L equilibrated alike
            amplification = float(np.max(np.sum(np.abs(np.linalg.solve(jacobian, rows)), axis=1)))
        elif len(halvings) == min(config.max_iter, 60):
            break
        for halving in range(30):
            candidate = u + 0.5**halving * step
            cand_res, cand_norm = system(candidate)
            if cand_norm < res_norm:  # false for inf and nan
                u, residual, res_norm = candidate, cand_res, cand_norm
                break
        else:  # no step length decreases the residual: at its rounding floor, or stuck
            if stop:
                break
            halving, status = 30, "stagnated"
        halvings.append(halving)
        trace.append(res_norm)
    ts = np.linspace(0.0, 1.0, config.n + 1)
    solution = np.polynomial.chebyshev.chebval(1.0 - 2.0 * ts, to_coeffs @ u)
    return CollocationResult(
        solution=GridFunction(config.n, solution), status=status, iterations=len(halvings),
        residual=res_norm, residual_trace=trace, halvings=halvings,
        error_estimate=error_estimate, amplification=amplification,
    )
