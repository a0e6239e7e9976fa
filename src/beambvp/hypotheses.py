"""Growth-limit estimates and existence-criterion certificates.

The two existence criteria for the beam problem hinge on the limits

    f0   = lim of f(u)/u as u -> 0+,
    finf = lim of f(u)/u as u -> infinity.

``certify_f0_zero`` handles the small-amplitude criterion (f0 = 0): it
fixes the largest admissible slope epsilon = 1 - alpha and finds the
largest radius rho1 such that f(u) <= epsilon * u on (0, rho1].
``certify_finf_zero`` handles the large-amplitude criterion (finf = 0):
either f is bounded by some L (Case 1), or there are eta = 1 - alpha,
rho2, sigma with f(u) <= eta * u beyond rho2 and f(u) <= eta * sigma
below it (Case 2); the enclosing radius is rho_hat2 = max(sigma, rho2).

Limits can only be probed on finite schedules, so every estimate carries
its raw (u, f(u)/u) samples for audit; a function that misbehaves beyond
the schedule defeats the estimator, which is a documented limitation.
The scan-based construction of rho2 and sigma is one admissible choice
among many; any pair satisfying the inequalities would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernel, quadrature
from .errors import require_nonneg
from .exprlang import ExprEvalError
from .kernel import KernelContext
from .quadrature import QuadratureSettings

CONVERGENCE_RTOL = 1e-4
DIVERGENCE_LIMIT = 1e8
SCAN_POINTS = 10**4
RHO1_CAP = 1e3
RHO1_MIN = 1e-6
BOUNDEDNESS_CAP = 1e6
MARGIN_SLACK = 1e-12

ArrayFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LimitEstimate:
    """Plain-limit estimate of f(u)/u along a geometric schedule.

    ``samples`` keeps every (u, f(u)/u) pair evaluated so the convergence
    claim can be audited.  ``divergent`` is set when the ratios climb past
    1e8, or when f itself overflows the float range mid-schedule.
    """

    value: Optional[float]
    converged: bool
    divergent: bool
    samples: tuple[tuple[float, float], ...]

    def is_zero(self) -> bool:
        return self.converged and self.value is not None and abs(self.value) < CONVERGENCE_RTOL


def _scan(f: ArrayFn, us: np.ndarray) -> tuple[np.ndarray, int]:
    """(f(us), stop): f on the scan, valid before index ``stop``; stop is
    the first point where f fails to evaluate (overflow), or len(us)."""
    try:
        return f(us), len(us)
    except ExprEvalError as exc:
        return exc.values, exc.index


def _ratio_schedule(f: ArrayFn, us: np.ndarray) -> LimitEstimate:
    fus, stop = _scan(f, us)  # f overflowed at stop: keep the samples before it
    require_nonneg("H1", "f", us[:stop], fus[:stop])
    samples = tuple(zip(us[:stop].tolist(), (fus / us)[:stop].tolist()))
    ratios = [r for _, r in samples]
    if stop < len(us) or (ratios[-1] >= DIVERGENCE_LIMIT and ratios[-1] > ratios[-2]):
        return LimitEstimate(None, False, True, samples)
    converged = abs(ratios[-1] - ratios[-2]) < CONVERGENCE_RTOL * (1.0 + abs(ratios[-1]))
    return LimitEstimate(ratios[-1], converged, False, samples)


def estimate_f0(f: ArrayFn) -> LimitEstimate:
    """f(u)/u along u = 10^-k, k = 1..12."""
    return _ratio_schedule(f, np.array([10.0**-k for k in range(1, 13)]))


def estimate_finf(f: ArrayFn) -> LimitEstimate:
    """f(u)/u along u = 10^k, k = 1..8."""
    return _ratio_schedule(f, np.array([10.0**k for k in range(1, 9)]))


@dataclass(frozen=True)
class F0Certificate:
    """f(u) <= epsilon * u holds on (0, rho1], with epsilon <= 1 - alpha."""

    epsilon: float
    rho1: float


@dataclass(frozen=True)
class FInfCertificate:
    """Case 1: f <= L everywhere probed.  Case 2: f(u) <= eta * u past
    rho2 and f <= eta * sigma on [0, rho2]; rho_hat2 = max(sigma, rho2)."""

    bounded_case: bool
    L: Optional[float] = None
    eta: Optional[float] = None
    rho2: Optional[float] = None
    sigma: Optional[float] = None
    rho_hat2: Optional[float] = None


def _scan_grid(lo_exp: float, hi_exp: float) -> np.ndarray:
    return np.logspace(lo_exp, hi_exp, SCAN_POINTS)


def certify_f0_zero(f: ArrayFn, ctx: KernelContext,
                    f0_estimate: LimitEstimate) -> Optional[F0Certificate]:
    """Certificate for the small-amplitude criterion, or None.

    epsilon is pinned at its largest admissible value 1 - alpha (this
    maximizes rho1; the criterion only needs the inequality).  rho1 is
    located by scanning a log grid up to 1e3 and bisecting the first
    envelope crossing of f(u) = epsilon * u (a point of the scan or the
    bisection where f overflows counts as a crossing); the greatest
    certifiable radius is capped at 1e3.  Returns None when the f0
    estimate is not approximately zero or no radius >= 1e-6 exists.
    """
    if not f0_estimate.is_zero():
        return None
    epsilon = 1.0 - ctx.alpha
    us = _scan_grid(-9.0, math.log10(RHO1_CAP))
    fus, stop = _scan(f, us)  # a point where f overflows lies above the ray
    bad = np.nonzero(fus[:stop] - epsilon * us[:stop] > MARGIN_SLACK)[0]
    first_bad = int(bad[0]) if bad.size else stop
    if first_bad == len(us):
        return F0Certificate(epsilon=epsilon, rho1=RHO1_CAP)
    if first_bad == 0:
        return None
    lo, hi = float(us[first_bad - 1]), float(us[first_bad])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid, stop = _scan(f, np.array([mid]))
        if stop == 1 and fmid[0] - epsilon * mid <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, lo):
            break
    if lo < RHO1_MIN:
        return None
    return F0Certificate(epsilon=epsilon, rho1=lo)


def certify_finf_zero(f: ArrayFn, ctx: KernelContext,
                      finf_estimate: LimitEstimate) -> Optional[FInfCertificate]:
    """Certificate for the large-amplitude criterion, or None.

    Boundedness probe: scan f on a log grid over (0, 1e6] (plus u = 0);
    if the supremum shows no growth in the last decade it is taken as
    stable and Case 1 returns L = observed sup * (1 + 1e-6).  Otherwise
    Case 2 constants are built from the same scan with eta = 1 - alpha.
    Returns None when the finf estimate is not approximately zero, or f
    fails to evaluate anywhere on the scan or at 0.
    """
    if not finf_estimate.is_zero():
        return None
    us = _scan_grid(-9.0, math.log10(BOUNDEDNESS_CAP))
    fvals, stop = _scan(f, np.concatenate(([0.0], us)))
    if stop <= len(us):
        return None  # f fails at 0 or overflows on the probe: no finite L or sigma
    f_at_zero, fvals = float(fvals[0]), fvals[1:]
    sup_full = max(float(np.max(fvals)), f_at_zero)
    head = us <= BOUNDEDNESS_CAP / 10.0
    sup_head = max(float(np.max(fvals[head])), f_at_zero)
    if sup_full <= sup_head * (1.0 + 1e-9):
        return FInfCertificate(bounded_case=True, L=sup_full * (1.0 + 1e-6))

    eta = 1.0 - ctx.alpha
    margins = fvals - eta * us
    bad = np.nonzero(margins > MARGIN_SLACK)[0]
    if bad.size == 0:
        rho2 = float(us[0])
    elif int(bad[-1]) == len(us) - 1:
        return None  # f still above the admissible ray at the probe cap
    else:
        rho2 = float(us[int(bad[-1])])
    below = us <= rho2
    sigma = max(float(np.max(fvals[below])), f_at_zero) / eta
    return FInfCertificate(
        bounded_case=False, eta=eta, rho2=rho2, sigma=sigma, rho_hat2=max(sigma, rho2)
    )


@dataclass(frozen=True)
class H1H2Report:
    h1: bool
    h2: bool
    alpha: float


def check_h1_h2(
    f: ArrayFn, a: ArrayFn, quad: QuadratureSettings = quadrature.DEFAULT_SETTINGS
) -> H1H2Report:
    """Sampled verdicts on the two standing hypotheses.

    h1: f is defined at u = 0 and f >= 0 at 1e4 scan points of [0, 1e6]
    (continuity comes from the expression grammar; other points where f
    overflows are skipped, since overflow says magnitude, not sign).
    h2: a >= 0 on sampled [0, 1] and its total mass alpha lies in (0, 1).
    """
    # NaN where f failed: fatal at u = 0, skipped elsewhere
    fvals, _ = _scan(f, np.concatenate(([0.0], _scan_grid(-9.0, 6.0))))
    taus = quadrature.nodes(0.0, 1.0, quad)
    a_vals, a_taus = kernel.sample_weight(a, kernel.H2_POINTS, taus, nonneg=False)
    alpha = quadrature._simpson_sum(taus, a_taus, 0.0, 1.0, quad)
    h2 = bool(np.all(a_vals >= 0.0) and np.all(a_taus >= 0.0)) and 0.0 < alpha < 1.0
    return H1H2Report(h1=bool(fvals[0] >= 0.0) and not np.any(fvals < 0.0), h2=h2, alpha=alpha)


@dataclass(frozen=True)
class HypothesisReport:
    """Everything the analysis command reports about f and a."""

    alpha: float
    beta: float
    f0_estimate: LimitEstimate
    finf_estimate: LimitEstimate
    epsilon: float  # largest admissible slope, 1 - alpha
    f0_certificate: Optional[F0Certificate]  # None: small-amplitude criterion not certified
    finf_certificate: Optional[FInfCertificate]  # None: large-amplitude criterion not certified


def build_report(f: ArrayFn, ctx: KernelContext) -> HypothesisReport:
    """Run both estimates, once each, and both certifications against a valid context."""
    f0, finf = estimate_f0(f), estimate_finf(f)
    return HypothesisReport(
        alpha=ctx.alpha,
        beta=ctx.beta,
        f0_estimate=f0,
        finf_estimate=finf,
        epsilon=1.0 - ctx.alpha,
        f0_certificate=certify_f0_zero(f, ctx, f0),
        finf_certificate=certify_finf_zero(f, ctx, finf),
    )
