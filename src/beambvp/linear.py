"""The kernel operator of the linear problem, its cone check, and an exact oracle.

``operator_matrix`` discretizes u(t) = integral of H(t, s) y(s) ds, the
solution of u'''' + y = 0 under the problem's boundary conditions, as a
matrix-free operator on grid values of y.  y is replaced by its
piecewise-quadratic interpolant on node-pair panels, and every integral
of it against G is exact.  G is cubic in t - s on either side of the
diagonal, so

    integral of G(t, s) y(s) ds = (t^3 J2(1) - J3(t)) / 6,
    Jm(t) = integral over [0, t] of (t - s)^m y(s) ds.

Jm at the panel starts follows from J0..Jm at the previous start by a
binomial shift plus the exact moment of one panel: four chained prefix
sums that add, never subtract, earlier moments, so nothing large
cancels.  The even nodes 0, 2, ..., n - 2 are panel starts and read J3
there; a point inside a panel (an odd node, node n, an abscissa of the
correction rule) adds the closed-form partial-panel moment.  The nonlocal
constant, integral of c(s) y(s) ds, is the same evaluator summed over the
context's correction rule (``ctx.taus``, ``ctx.tau_weights``).  Building
the operator does the y-independent work once (panel positions of the
in-panel points, their partial-panel moments, the binomial shift
coefficients and powers of the panel width) and evaluates nothing; one
application is O(n) in time and memory, so callers that apply it many
times build it once.  Two properties follow that a plain
sample-the-kernel-at-nodes Nystrom matrix does not give:

* the operator is exact (to roundoff) whenever y is piecewise quadratic,
  so polynomial oracle comparisons are limited only by interpolation of
  y, not by kernel quadrature error across the kink;
* the discretization error varies smoothly with t, so fourth-difference
  residuals of solutions are not polluted by panel-parity noise from the
  kink (that noise is O(1) after division by h^4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np

from .errors import HypothesisViolation
from .grid import GridFunction
from .kernel import KernelContext

CONE_SLACK = 1e-10

# integral over [0, 1] of r^m phi_b(1 - r) dr, phi_b the Lagrange basis on
# {0, 1/2, 1}: the m-th moment of one unit panel about its right end
_PANEL_MOMENTS = np.array(
    [[1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 3, 0.0],
     [3 / 20, 1 / 5, -1 / 60], [2 / 15, 2 / 15, -1 / 60]]
)


def _partial_moment3(xi: np.ndarray) -> np.ndarray:
    """integral over [0, xi] of (xi - z)^3 phi_b(z) dz; shape (3, len(xi))."""
    x4, x5, x6 = xi**4, xi**5, xi**6
    return np.stack([x4 / 4 - 3 * x5 / 20 + x6 / 30, x5 / 5 - x6 / 15, x6 / 30 - x5 / 20])


@functools.lru_cache(maxsize=4)  # read-only, so every context on one grid and rule shares it
def _geometry(n: int, rule: bytes) -> tuple:
    """The operator's arrays that neither y nor a changes, for n and the
    correction rule whose abscissae ``ctx.taus`` has the bytes ``rule``."""
    panels = n // 2
    d = 1.0 / panels
    # x = t / d, in panel units, of the points inside a panel: the odd nodes,
    # node n, then the rule's abscissae
    x = np.concatenate((np.arange(1, n + 1, 2) / 2.0, [panels], np.frombuffer(rule) * panels))
    p = np.minimum(x.astype(int), panels - 1)
    xi = x - p
    panel_ends = 2 * p + np.arange(3)[:, None]  # y[2p + b]: basis b's value on each panel
    dx, moment3, cube = xi * d, _partial_moment3(xi), (x * d) ** 3
    start_cube = (np.arange(panels) * d) ** 3
    local_scale = d ** np.arange(1, 5)[:, None]
    shift_coeffs = tuple(tuple(comb(m, k) * d ** (m - k) for k in range(m)) for m in range(4))
    for array in (dx, moment3, cube, start_cube, local_scale):
        array.flags.writeable = False
    # p and panel_ends stay writeable: numpy's take copies a read-only index array on every call
    return p, panel_ends, dx, moment3, cube, start_cube, local_scale, shift_coeffs, d**4


def operator_matrix(ctx: KernelContext, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The (n+1) x (n+1) operator mapping grid y-values to grid u-values,
    as its apply function ``op(y)``.

    Building it takes the y-independent work, where each in-panel point
    (odd node, node n, abscissa of the context's correction rule) falls in
    its panel, from :func:`_geometry`, once per (n, rule).  ``op(y)`` then
    applies it in O(n) time and memory; no matrix is formed.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"operator grid needs even n >= 2, got n={n}")
    panels = n // 2
    p, panel_ends, dx, moment3, cube, start_cube, local_scale, shift_coeffs, d4 = \
        _geometry(n, ctx.taus.tobytes())

    def apply(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        # an overflowing y gives inf or nan here; callers check finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.stack([y[0:-1:2], y[1::2], y[2::2]])  # (basis, panel)
            j = np.zeros((4, panels + 1))  # Jm at the panel starts 0, d, ..., 1
            np.multiply(_PANEL_MOMENTS @ ends, local_scale, out=j[:, 1:])
            term = np.empty(panels)
            for m, coeffs in enumerate(shift_coeffs):
                if coeffs:  # the binomial shift: c_k J_k of the previous start, in order of k
                    shift = coeffs[0] * j[0, :-1]
                    for k, c in enumerate(coeffs[1:], start=1):
                        shift += np.multiply(j[k, :-1], c, out=term)
                    j[m, 1:] += shift
                # summed from the leading 0, a -0.0 term adds what +0.0 would
                np.add.accumulate(j[m], out=j[m])
            # J3 at the in-panel points: its panel start's J0..J3 shifted by dx (Horner)
            jp = j.take(p, axis=1)
            v = jp[0]
            v *= dx
            for m in (1, 2):
                jp[m] *= 3.0
                v += jp[m]
                v *= dx
            v += jp[3]
            tail = np.einsum("bk,bk->k", moment3, y.take(panel_ends))
            tail *= d4
            v += tail
            np.subtract(cube * j[2, -1], v, out=v)
            v /= 6.0
            constant = ctx.tau_weights @ v[panels + 1:]
            u = np.empty(n + 1)
            even = u[0:n:2]
            np.multiply(start_cube, j[2, -1], out=even)
            even -= j[3, :-1]
            even /= 6.0
            u[1::2], u[n] = v[:panels], v[panels]
            u += constant
            return u

    return apply


def polynomial_oracle(
    y_coeffs: Sequence[float], a_coeffs: Sequence[float]
) -> np.ndarray:
    """Exact solution coefficients when y and a are polynomials.

    Antidifferentiates -y four times, fixes the cubic/linear/quadratic
    coefficients from u'(0) = u''(0) = u'(1) = 0, then solves
    c0 (1 - alpha) = integral of a * (particular part) for the constant
    term, all in rational arithmetic.  Returns ascending coefficients as
    floats.  Independent of the kernel machinery by construction: no
    command calls it; the tests hold ``operator_matrix`` to it.
    """
    y = [Fraction(c) for c in y_coeffs]
    a = [Fraction(c) for c in a_coeffs]
    alpha = sum((c / (m + 1) for m, c in enumerate(a)), Fraction(0))
    if not 0 < alpha < 1:
        raise HypothesisViolation("H2", f"polynomial weight has total mass {alpha}")

    # particular part p with p'''' = -y and p(0)=p'(0)=p''(0)=p'''(0)=0
    p = [Fraction(0)] * (len(y) + 4)
    for k, c in enumerate(y):
        p[k + 4] = -c / ((k + 1) * (k + 2) * (k + 3) * (k + 4))
    c3 = -sum(k * c for k, c in enumerate(p)) / 3  # from u'(1) = 0
    q = list(p)
    q[3] += c3
    moment = sum(
        am * qk / (mdeg + kdeg + 1) for mdeg, am in enumerate(a) for kdeg, qk in enumerate(q)
    )
    c0 = moment / (1 - alpha)
    q[0] += c0
    return np.array([float(c) for c in q])


@dataclass(frozen=True)
class ConeCheck:
    """Result of the cone inequality min over [theta, 1-theta] of u
    >= theta^3 (1 - alpha + beta) * sup-norm."""

    min_inner: float
    norm: float
    ratio: float | None
    threshold: float
    satisfied: bool


def cone_ratio(u: GridFunction, ctx: KernelContext) -> ConeCheck:
    """Evaluate the cone inequality for arbitrary grid data.

    Pure inequality evaluator: u need not solve anything.  The inner
    minimum runs over grid points inside [theta, 1-theta], admitting
    boundary nodes up to 1e-12 of floating slack so exact hits like
    theta = 1/4 on a multiple-of-4 grid are kept.
    """
    n = u.n
    i_lo = int(np.ceil((ctx.theta - 1e-12) * n))
    i_hi = int(np.floor((1.0 - ctx.theta + 1e-12) * n))
    min_inner, norm = float(np.min(u.values[i_lo : i_hi + 1])), u.sup_norm()
    return ConeCheck(
        min_inner=min_inner, norm=norm, ratio=(min_inner / norm) if norm > 0.0 else None,
        threshold=ctx.cone_constant, satisfied=min_inner >= ctx.cone_constant * norm - CONE_SLACK,
    )
