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

import numpy as np

from . import quadrature
from .errors import HypothesisViolation, require_nonneg
from .exprlang import ExpressionFn, ExprEvalError
from .quadrature import QuadratureSettings

DEFAULT_THETA = 0.25
H2_POINTS = np.linspace(0.0, 1.0, 1001)  # uniform points where (H2) samples a


def green_s_le_t(t, s):
    """G(t, s) for s <= t.  This, green_s_ge_t and g_envelope are the kernel's
    formulas: float arrays and the exact proofs of beambvp.bernstein run them alike."""
    return (t**3 * (1.0 - s) ** 2 - (t - s) ** 3) / 6.0


def green_s_ge_t(t, s):
    return t**3 * (1.0 - s) ** 2 / 6.0


def g_envelope(s):
    """The envelope g(s) = G(1, s) = s (1-s)^2 / 6 = max over t of G(t, s)."""
    return s * (1.0 - s) ** 2 / 6.0


def green_matrix(ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """G evaluated on the grid product ts x ss, shape (len(ts), len(ss)).  No
    command calls it or :func:`correction_values`: the tests hold the
    operator of ``beambvp.linear`` to both as references."""
    t = np.asarray(ts, dtype=float)[:, None]
    s = np.asarray(ss, dtype=float)[None, :]
    return np.where(s <= t, green_s_le_t(t, s), green_s_ge_t(t, s))


@dataclass(frozen=True, eq=False)
class KernelContext:
    """Boundary weight a(t) with its derived constants.

    Assembled by :func:`make_context`, which enforces (H2): a >= 0 on the
    sampled interval and 0 < alpha < 1.  Instances are immutable and
    compare and hash by identity: two contexts with equal constants can
    still carry different correction rules, hence different operators.

    alpha is the total mass of a over [0, 1]; beta the mass over
    [theta, 1 - theta].  The cone constant theta^3 (1 - alpha + beta)
    governs how far solutions can dip on the inner interval relative to
    their sup-norm.  taus and tau_weights are the nonlocal correction
    rule, c(s) = sum of tau_weights * G(taus, s): the quadrature's
    abscissae and weights on [0, 1], folded with a(tau) / (1 - alpha).
    """

    weight: ExpressionFn
    theta: float
    alpha: float
    beta: float
    taus: np.ndarray = field(repr=False)
    tau_weights: np.ndarray = field(repr=False)

    @property
    def cone_constant(self) -> float:
        return self.theta**3 * (1.0 - self.alpha + self.beta)


def sample_weight(weight: ExpressionFn, *point_sets: np.ndarray) -> list:
    """a on each of ``point_sets`` from one evaluation on their concatenation,
    the one place the package evaluates a.  (H2) holds a finite and >= 0
    there.  Only when it fails is a evaluated again, on the sorted points,
    to raise :class:`HypothesisViolation`: a point where a cannot be
    evaluated is named before a negative value, each at its smallest t."""
    ts = np.concatenate(point_sets)
    try:
        a_vals = weight(ts)
    except ExprEvalError:
        a_vals = None
    if a_vals is None or (a_vals < 0.0).any():
        ts = np.sort(ts)
        try:
            a_vals = weight(ts)
        except ExprEvalError as exc:
            raise HypothesisViolation("H2", f"a cannot be evaluated at t = {exc.x}: {exc}") from exc
        require_nonneg("H2", "a", ts, a_vals)
    return np.split(a_vals, np.cumsum([len(p) for p in point_sets[:-1]]))


def make_context(
    weight: ExpressionFn,
    theta: float = DEFAULT_THETA,
    quad: QuadratureSettings = quadrature.DEFAULT_SETTINGS,
) -> KernelContext:
    """Validate the boundary weight and compute alpha, beta and the
    correction rule by quadrature, from one evaluation of the weight.

    Nonnegativity of the weight is checked at 1001 uniform points plus the
    abscissae of the rules for alpha and beta; a weight dipping negative
    strictly between samples is accepted (sampling limitation).
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must lie in (0, 1/2), got {theta}")
    taus, ws = quadrature.nodes_weights(0.0, 1.0, quad)
    inner = quadrature.nodes_weights(theta, 1.0 - theta, quad)[0]
    _, a_taus, a_inner = sample_weight(weight, H2_POINTS, taus, inner)
    with np.errstate(over="ignore"):  # a mass past the float limit is inf, which (H2) refuses
        alpha = quadrature._simpson_sum(taus, a_taus, 0.0, 1.0, quad)
        beta = quadrature._simpson_sum(inner, a_inner, theta, 1.0 - theta, quad)
    rounding = len(taus) * np.finfo(float).eps * alpha  # bounds the sum's error, as a >= 0
    if not 0.0 < alpha < 1.0 - rounding:  # 1 - alpha must not be rounding alone
        near = f", 1 up to its rounding error {rounding:.2g}," if 0.0 < alpha < 1.0 else ","
        raise HypothesisViolation(
            "H2", f"total mass of a over [0,1] is {alpha}{near} required strictly inside (0, 1)"
        )
    return KernelContext(
        weight=weight, theta=theta, alpha=alpha, beta=min(max(beta, 0.0), alpha),
        taus=taus, tau_weights=a_taus * ws / (1.0 - alpha),
    )


def correction_values(ctx: KernelContext, ss: np.ndarray) -> np.ndarray:
    """c(s) = (1/(1-alpha)) * integral of a(tau) G(tau, s) d tau, vectorized in s.

    This is the t-independent part of the modified kernel
    H(t, s) = G(t, s) + c(s).
    """
    return ctx.tau_weights @ green_matrix(ctx.taus, np.atleast_1d(np.asarray(ss, dtype=float)))
