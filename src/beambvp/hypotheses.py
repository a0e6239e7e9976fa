"""Growth-limit estimates and existence-criterion certificates.

The two existence criteria for the beam problem hinge on the limits

    f0   = lim of f(u)/u as u -> 0+,
    finf = lim of f(u)/u as u -> infinity.

``certify_f0_zero`` handles the small-amplitude criterion (f0 = 0): it
fixes the largest admissible slope epsilon = 1 - alpha and finds rho1 with
f(u) <= epsilon * u on (0, rho1] by a log scan and three rescans of its first
crossing's bracket: rho1 stops before the first point above the ray on each.
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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernel, quadrature
from .errors import HypothesisViolation, require_nonneg
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
F0_SCHEDULE = tuple(10.0**-k for k in range(1, 13))  # u = 10^-k, k = 1..12
FINF_SCHEDULE = tuple(10.0**k for k in range(1, 9))  # u = 10^k, k = 1..8
# slices of _probe(): u = 0 and the log scan up to 1e6 (the boundedness probe), then the schedules
_SCAN = slice(0, SCAN_POINTS + 1)
_F0 = slice(_SCAN.stop, _SCAN.stop + len(F0_SCHEDULE))
_FINF = slice(_F0.stop, _F0.stop + len(FINF_SCHEDULE))

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


def _scan(f: ArrayFn, us: np.ndarray) -> np.ndarray:
    """f on us, NaN where f fails to evaluate (overflow, division by zero)."""
    try:
        return f(us)
    except ExprEvalError as exc:
        return exc.values


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask)."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _ratio_schedule(us: np.ndarray, fus: np.ndarray) -> LimitEstimate:
    stop = _first(np.isnan(fus))  # f overflowed at stop: keep the samples before it
    require_nonneg("H1", "f", us[:stop], fus[:stop])
    with np.errstate(over="ignore"):  # f near the float limit at a small u: the ratio is inf
        samples = tuple(zip(us[:stop].tolist(), (fus / us)[:stop].tolist()))
    ratios = [r for _, r in samples]
    # an overflowed ratio (inf) has climbed past the limit, though inf > inf is false
    if stop < len(us) or ratios[-1] == math.inf or (
            ratios[-1] >= DIVERGENCE_LIMIT and ratios[-1] > ratios[-2]):
        return LimitEstimate(None, False, True, samples)
    converged = abs(ratios[-1] - ratios[-2]) < CONVERGENCE_RTOL * (1.0 + abs(ratios[-1]))
    return LimitEstimate(ratios[-1], converged, False, samples)


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


@functools.cache  # read-only, so every caller can share one array
def _scan_grid(hi_exp: float) -> np.ndarray:
    us = np.logspace(-9.0, hi_exp, SCAN_POINTS)
    us.setflags(write=False)
    return us


@functools.cache
def _probe() -> np.ndarray:
    """u = 0, the scan grid over [1e-9, 1e6], then both limit schedules:
    every point where H1 reads f's sign, read again by the report."""
    bounded = _scan_grid(math.log10(BOUNDEDNESS_CAP))
    us = np.concatenate(([0.0], bounded, F0_SCHEDULE, FINF_SCHEDULE))
    us.setflags(write=False)
    return us


def certify_f0_zero(f: ArrayFn, ctx: KernelContext,
                    f0_estimate: LimitEstimate) -> Optional[F0Certificate]:
    """Certificate for the small-amplitude criterion, or None.

    epsilon is pinned at its largest admissible value 1 - alpha (this
    maximizes rho1; the criterion only needs the inequality).  rho1 is the
    last point below the ray epsilon * u before the first above it (or where
    f overflows) on a log scan up to 1e3 (slack 1e-12) and on three 4097-point
    rescans, each of the bracket found before: within ~4e-14 rho1, at most 1e3.
    None when the f0 estimate is not approximately zero or rho1 < 1e-6.
    """
    if not f0_estimate.is_zero():
        return None
    epsilon = 1.0 - ctx.alpha
    us = _scan_grid(math.log10(RHO1_CAP))
    fus = _scan(f, us)  # a point where f overflows (NaN) lies above the ray
    first_bad = _first(~(fus - epsilon * us <= MARGIN_SLACK))
    if first_bad == len(us):
        return F0Certificate(epsilon=epsilon, rho1=RHO1_CAP)
    if first_bad == 0:
        return None
    lo, hi = us[first_bad - 1], us[first_bad]
    for _ in range(3):  # each rescan narrows the bracket 4096-fold, from 2.8e-3 rho1
        pts = np.linspace(lo, hi, 4097)  # pts[-1] = hi lies above the ray
        k = _first(~(_scan(f, pts) - epsilon * pts <= 0.0))
        lo, hi = pts[max(k - 1, 0)], pts[k]  # k = 0: the scan's slack alone let lo pass
    if lo < RHO1_MIN:
        return None
    return F0Certificate(epsilon=epsilon, rho1=float(lo))


def certify_finf_zero(ctx: KernelContext, finf_estimate: LimitEstimate,
                      fvals: np.ndarray) -> Optional[FInfCertificate]:
    """Certificate for the large-amplitude criterion, or None, from fvals:
    f on the probe's ``_SCAN`` slice, NaN where f failed.

    Boundedness probe: f on a log grid over (0, 1e6] (plus u = 0);
    if the supremum shows no growth in the last decade it is taken as
    stable and Case 1 returns L = observed sup * (1 + 1e-6).  Otherwise
    Case 2 constants are built from the same scan with eta = 1 - alpha.
    Returns None when the finf estimate is not approximately zero, or f
    fails to evaluate anywhere on the scan or at 0.
    """
    if not finf_estimate.is_zero() or np.isnan(fvals).any():
        return None  # f fails at 0 or overflows on the probe: no finite L or sigma
    us = _probe()[1:_SCAN.stop]
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
    h1: bool  # h1 and h2 always read true: check_h1_h2 raises on a violation
    h2: bool
    ctx: KernelContext
    f_probe: np.ndarray = field(repr=False, compare=False)  # f on _probe(), NaN where f failed


def check_h1_h2(f: ArrayFn, a: ArrayFn, quad: QuadratureSettings = quadrature.DEFAULT_SETTINGS,
                theta: float = kernel.DEFAULT_THETA) -> H1H2Report:
    """The gate every command passes before any output: raise
    :class:`HypothesisViolation` unless both standing hypotheses hold.

    H2 first: :func:`kernel.make_context` checks it and builds the returned
    context.  H1: f is defined at u = 0 and f >= 0 at 1e4 scan points of
    [0, 1e6] and on both limit schedules, so no later estimate finds a
    negative f (continuity comes from the expression grammar; other points
    where f overflows are skipped, since overflow says magnitude, not sign).
    """
    ctx = kernel.make_context(a, theta=theta, quad=quad)
    us = _probe()
    try:
        fvals = f(us)
    except ExprEvalError as exc:
        if exc.index == 0:
            raise HypothesisViolation("H1", f"f cannot be evaluated at u = 0: {exc}") from exc
        fvals = exc.values  # NaN where f overflowed, which no comparison flags
    require_nonneg("H1", "f", us, fvals)
    return H1H2Report(h1=True, h2=True, ctx=ctx, f_probe=fvals)


@dataclass(frozen=True)
class HypothesisReport:
    """What the analysis learned about f; the constants of a live on the context."""

    f0_estimate: LimitEstimate
    finf_estimate: LimitEstimate
    f0_certificate: Optional[F0Certificate]  # None: small-amplitude criterion not certified
    finf_certificate: Optional[FInfCertificate]  # None: large-amplitude criterion not certified


def build_report(f: ArrayFn, ctx: KernelContext, f_probe: np.ndarray | None = None) -> HypothesisReport:
    """Both estimates and both certifications from f on ``_probe()``: the
    gate's values ``f_probe`` (NaN where f failed), so only rho1's scans
    evaluate f, or, where None, one evaluation of f on the probe."""
    us = _probe()
    f_probe = _scan(f, us) if f_probe is None else f_probe
    f0 = _ratio_schedule(us[_F0], f_probe[_F0])
    finf = _ratio_schedule(us[_FINF], f_probe[_FINF])
    return HypothesisReport(f0, finf, certify_f0_zero(f, ctx, f0),
                            certify_finf_zero(ctx, finf, f_probe[_SCAN]))
