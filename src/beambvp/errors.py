"""Shared exception types."""

import numpy as np


class HypothesisViolation(ValueError):
    """A standing hypothesis on the problem data does not hold.

    ``which`` is "H1" (the nonlinearity f must map [0, inf) into [0, inf))
    or "H2" (the boundary weight a must be nonnegative on [0, 1] with
    0 < integral of a < 1).
    """

    def __init__(self, which: str, message: str):
        super().__init__(f"hypothesis {which} violated: {message}")
        self.which = which


class NumericError(RuntimeError):
    """A numeric evaluation produced a non-finite or undefined value."""

    def __init__(self, message: str, where: float | None = None):
        super().__init__(message)
        self.where = where


def require_nonneg(which: str, name: str, xs: np.ndarray, values: np.ndarray) -> None:
    """Raise :class:`HypothesisViolation` naming the first negative sample."""
    negative = values < 0.0
    if negative.any():
        i = np.flatnonzero(negative)[0]
        raise HypothesisViolation(which, f"{name}({float(xs[i])}) = {float(values[i])} < 0")
