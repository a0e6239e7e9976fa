"""Green's function of the clamped-slope beam problem and its nonlocal correction.

The linear problem u'''' + y = 0 with u'(0) = u'(1) = u''(0) = 0 and the
nonlocal condition u(0) = integral of a(s) u(s) ds is inverted by the kernel

    H(t, s) = G(t, s) + c(s),
    c(s) = (1 / (1 - alpha)) * integral over tau of a(tau) G(tau, s),

where G is the Green's function for the purely local conditions,

    G(t, s) = (1/6) * (t^3 (1-s)^2 - (t-s)^3)   for s <= t,
              (1/6) *  t^3 (1-s)^2              for t <= s,

and alpha = integral of a over [0, 1].  The correction c is independent
of t; it only shifts the solution by a constant.

Key inequalities used throughout the package:

* G(t, s) >= 0 everywhere, and G is nondecreasing in t, so
  max over t of G(t, s) = G(1, s) = g(s) = s (1-s)^2 / 6.
* theta^3 * g(s) <= G(t, s) <= g(s) for t in [theta, 1-theta], any
  fixed theta in (0, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import quadrature
from .errors import HypothesisViolation, require_nonneg
from .exprlang import ExpressionFn
from .quadrature import QuadratureSettings

DEFAULT_THETA = 0.25

_ArrayLike = Union[float, np.ndarray]


def _green_raw(t: _ArrayLike, s: _ArrayLike) -> _ArrayLike:
    """Branch formula, no domain checks; broadcasts over arrays."""
    upper = t**3 * (1.0 - s) ** 2
    return np.where(s <= t, upper - (t - s) ** 3, upper) / 6.0


def green(t: float, s: float) -> float:
    """Green's function G(t, s) on [0, 1]^2; the branches agree at t = s."""
    _check_unit(t, "t")
    _check_unit(s, "s")
    return float(_green_raw(t, s))


def green_matrix(ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """G evaluated on the grid product ts x ss, shape (len(ts), len(ss))."""
    ts = np.asarray(ts, dtype=float)
    ss = np.asarray(ss, dtype=float)
    return _green_raw(ts[:, None], ss[None, :])


def g_weight(s: _ArrayLike) -> _ArrayLike:
    """Upper envelope g(s) = s (1-s)^2 / 6 = G(1, s); vanishes at 0 and 1."""
    _check_unit(s, "s")
    return s * (1.0 - s) ** 2 / 6.0


def _check_unit(x: _ArrayLike, name: str):
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError(f"{name} = {x} outside [0, 1]")


@dataclass(frozen=True)
class KernelContext:
    """Boundary weight a(t) with its derived constants and quadrature choice.

    Assembled by :func:`make_context`, which enforces (H2): a >= 0 on the
    sampled interval and 0 < alpha < 1.  Instances are immutable; derived
    operator matrices are memoized on the context (keyed by grid size), so
    concurrent reads are safe once construction finishes.

    alpha is the total mass of a over [0, 1]; beta the mass over
    [theta, 1 - theta].  The cone constant theta^3 (1 - alpha + beta)
    governs how far solutions can dip on the inner interval relative to
    their sup-norm.
    """

    weight: ExpressionFn
    theta: float
    alpha: float
    beta: float
    quad: QuadratureSettings = field(default=quadrature.DEFAULT_SETTINGS)

    def __post_init__(self):
        object.__setattr__(self, "_op_cache", {})

    @property
    def cone_constant(self) -> float:
        return self.theta**3 * (1.0 - self.alpha + self.beta)


def _weight_samples(weight: ExpressionFn, quad: QuadratureSettings) -> tuple:
    """(ts, a(ts), alpha): the H2 sample set, 1001 uniform points plus the
    quadrature abscissae, the weight on it, and its mass over [0, 1]."""
    ts = np.union1d(np.linspace(0.0, 1.0, 1001), quadrature.nodes(0.0, 1.0, quad))
    return ts, weight(ts), quadrature.integrate(weight, 0.0, 1.0, quad)


def make_context(
    weight: ExpressionFn,
    theta: float = DEFAULT_THETA,
    quad: QuadratureSettings = quadrature.DEFAULT_SETTINGS,
) -> KernelContext:
    """Validate the boundary weight and compute alpha, beta by quadrature.

    Nonnegativity of the weight is checked at 1001 uniform points plus the
    quadrature abscissae; a weight dipping negative strictly between
    samples is accepted (sampling limitation).
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must lie in (0, 1/2), got {theta}")
    ts, a_vals, alpha = _weight_samples(weight, quad)
    require_nonneg("H2", "a", ts, a_vals)
    if not 0.0 < alpha < 1.0:
        raise HypothesisViolation(
            "H2", f"total mass of a over [0,1] is {alpha}, required strictly inside (0, 1)"
        )
    beta = quadrature.integrate(weight, theta, 1.0 - theta, quad)
    beta = min(max(beta, 0.0), alpha)
    return KernelContext(weight=weight, theta=theta, alpha=alpha, beta=beta, quad=quad)


def correction_values(ctx: KernelContext, ss: np.ndarray) -> np.ndarray:
    """c(s) = (1/(1-alpha)) * integral of a(tau) G(tau, s) d tau, vectorized in s.

    This is the t-independent part of the modified kernel; callers that
    assemble operator matrices evaluate it once per s-node rather than per
    (t, s) pair.
    """
    ss = np.atleast_1d(np.asarray(ss, dtype=float))
    taus, ws = quadrature.nodes_weights(0.0, 1.0, ctx.quad)
    return (ctx.weight(taus) * ws) @ green_matrix(taus, ss) / (1.0 - ctx.alpha)


def modified_kernel(t: float, s: float, ctx: KernelContext) -> float:
    """H(t, s) = G(t, s) + c(s) >= G(t, s) >= 0."""
    return green(t, s) + float(correction_values(ctx, np.array([s]))[0])
