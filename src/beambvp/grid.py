"""Functions sampled on the uniform grid t_i = i/n over [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NONNEG_SLACK = 1e-12


@dataclass(frozen=True)
class GridFunction:
    """Values of a scalar function at the n+1 uniform nodes of [0, 1]."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid resolution must be >= 1, got {self.n}")
        values = np.array(self.values, dtype=float)  # copy: callers keep their arrays
        if values.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = int(np.argmax(~np.isfinite(values)))
            raise ValueError(f"non-finite value at t = {bad / self.n}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> "GridFunction":
        """Samples of ``fn``, called once on the array of nodes i/n."""
        return cls(n, np.broadcast_to(fn(np.arange(n + 1) / n), (n + 1,)))

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(n, np.zeros(n + 1))

    @classmethod
    def constant(cls, c: float, n: int) -> "GridFunction":
        return cls(n, np.full(n + 1, float(c)))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min(self) -> float:
        return float(np.min(self.values))

    def is_nonneg(self) -> bool:
        return self.min() >= -NONNEG_SLACK

    def interp(self, t) -> float | np.ndarray:
        """Piecewise-linear interpolation at t in [0, 1]."""
        out = np.interp(t, self.ts, self.values)
        return float(out) if np.isscalar(t) else out

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.n, self.values - other.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.n, self.values + other.values)

    def scale(self, c: float) -> "GridFunction":
        return GridFunction(self.n, c * self.values)

    def _check_same_grid(self, other: "GridFunction"):
        if self.n != other.n:
            raise ValueError(f"grid mismatch: n={self.n} vs n={other.n}")
