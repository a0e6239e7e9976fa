"""Composite Simpson quadrature over [lo, hi] and on the uniform grid.

``QuadratureSettings`` sets only the rule for alpha, beta and the nonlocal
correction (composite Simpson, 200 panels by default, exact for cubics per
panel); it is not a global accuracy setting.  The kernel operator integrates
its load's piecewise-quadratic interpolant exactly against G (``linear``),
and the residuals and the norm bound use ``grid_weights``, set by n alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

# Simpson's reference nodes/weights on [0, 1] for one panel
_X = np.array([0.0, 0.5, 1.0])
_W = np.array([1.0, 4.0, 1.0]) / 6.0
MAX_PANELS = 10**5  # make_context holds arrays of 3 * panels nodes: under 0.1 GB at the bound


@dataclass(frozen=True)
class QuadratureSettings:
    panels: int = 200

    def __post_init__(self):
        if not isinstance(self.panels, int) or self.panels < 1:
            raise ValueError(f"panels must be a positive integer, got {self.panels!r}")
        if self.panels > MAX_PANELS:
            raise ValueError(f"panels must be at most {MAX_PANELS}, got {self.panels}")


DEFAULT_SETTINGS = QuadratureSettings()


def nodes_weights(
    lo: float, hi: float, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """Flat abscissa and weight arrays with sum(w * fn(x)) ~ integral; the
    abscissae are all the rule samples on [lo, hi], in increasing order."""
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    width = (hi - lo) / settings.panels
    xs = (lo + (np.arange(settings.panels)[:, None] + _X[None, :]) * width).ravel()
    ws = np.tile(_W * width, settings.panels)
    return xs, ws


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Approximate the integral of ``fn`` over [lo, hi].

    ``fn`` is called once, on the array of abscissae, and returns the
    integrand values there.  Exact for cubics on each panel.  A non-finite
    sample raises :class:`NumericError` carrying the first offending
    abscissa.
    """
    if lo == hi:
        return 0.0
    xs = nodes_weights(lo, hi, settings)[0]  # raises ValueError when lo > hi
    return _simpson_sum(xs, fn(xs), lo, hi, settings)


def _simpson_sum(xs: np.ndarray, ys, lo: float, hi: float, settings: QuadratureSettings) -> float:
    """The rule's sum of samples ys at xs = nodes_weights(lo, hi, settings)[0]; the
    one reduction behind :func:`integrate`, for callers holding samples."""
    ys = np.broadcast_to(np.asarray(ys, dtype=float), xs.shape)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        x = float(xs[bad[0]])
        raise NumericError(f"integrand returned {float(ys[bad[0]])!r} at x = {x}", where=x)
    width = (hi - lo) / settings.panels
    return float(np.dot(ys.reshape(settings.panels, -1).sum(axis=0), _W) * width)


def grid_weights(n: int) -> np.ndarray:
    """Composite Simpson weights w with sum(w * values) ~ integral over
    [0, 1] of samples on the n-interval grid (n must be even)."""
    if n % 2 != 0:
        raise ValueError(f"Simpson's rule on a grid needs even n, got n={n}")
    h = 1.0 / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)
