"""Composite quadrature over [lo, hi] and on the uniform grid.

Every integral in the package (boundary-weight masses, kernel corrections,
operator applications, residuals) flows through this module so one
settings object controls global accuracy.  The default is composite
Simpson with 200 panels, which is exact for cubics per panel and ample
for every tolerance used by the test suite; a composite 5-point
Gauss-Legendre rule (exact through degree 9 per panel) is available for
smoother integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NumericError
from .grid import GridFunction


class Rule(str, Enum):
    MIDPOINT = "midpoint"
    SIMPSON = "simpson"
    GAUSS5 = "gauss5"


# reference nodes/weights on [0, 1] for one panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)
_PANEL = {
    Rule.MIDPOINT: (np.array([0.5]), np.array([1.0])),
    Rule.SIMPSON: (np.array([0.0, 0.5, 1.0]), np.array([1.0, 4.0, 1.0]) / 6.0),
    Rule.GAUSS5: ((_GL_X + 1.0) / 2.0, _GL_W / 2.0),
}


@dataclass(frozen=True)
class QuadratureSettings:
    rule: Rule = Rule.SIMPSON
    panels: int = 200

    def __post_init__(self):
        object.__setattr__(self, "rule", Rule(self.rule))
        if not isinstance(self.panels, int) or self.panels < 1:
            raise ValueError(f"panels must be a positive integer, got {self.panels!r}")


DEFAULT_SETTINGS = QuadratureSettings()


def nodes(lo: float, hi: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """All abscissae the rule samples on [lo, hi], in increasing order."""
    return nodes_weights(lo, hi, settings)[0]


def nodes_weights(
    lo: float, hi: float, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """Flat abscissa and weight arrays with sum(w * fn(x)) ~ integral."""
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    xref, wref = _PANEL[settings.rule]
    width = (hi - lo) / settings.panels
    xs = (lo + (np.arange(settings.panels)[:, None] + xref[None, :]) * width).ravel()
    ws = np.tile(wref * width, settings.panels)
    return xs, ws


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Approximate the integral of ``fn`` over [lo, hi].

    ``fn`` is called once, on the array of abscissae, and returns the
    integrand values there.  Exact for polynomials up to the rule's
    per-panel degree (midpoint 1, Simpson 3, gauss5 9).  A non-finite
    sample raises :class:`NumericError` carrying the first offending
    abscissa.
    """
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    if lo == hi:
        return 0.0
    xs = nodes(lo, hi, settings)
    ys = np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        x = float(xs[bad[0]])
        raise NumericError(f"integrand returned {float(ys[bad[0]])!r} at x = {x}", where=x)
    _, wref = _PANEL[settings.rule]
    width = (hi - lo) / settings.panels
    return float(np.dot(ys.reshape(settings.panels, -1).sum(axis=0), wref) * width)


def grid_weights(n: int, settings: QuadratureSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Weights w with sum(w * values) ~ integral over [0, 1] of grid samples.

    Grid data admits only closed Newton-Cotes rules: ``simpson`` maps to
    composite Simpson (n must be even) and ``midpoint`` to its order-2
    sibling, the trapezoid rule.  ``gauss5`` needs off-grid samples and is
    a grid/rule mismatch.
    """
    h = 1.0 / n
    if settings.rule is Rule.SIMPSON:
        if n % 2 != 0:
            raise ValueError(f"rule 'simpson' on a grid needs even n, got n={n}")
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)
    if settings.rule is Rule.MIDPOINT:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
        return w
    raise ValueError(f"rule {settings.rule.value!r} cannot integrate grid samples")


def integrate_grid(values: GridFunction, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integral over [0, 1] of a grid-sampled integrand."""
    return float(np.dot(grid_weights(values.n, settings), values.values))
