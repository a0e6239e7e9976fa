"""Functions sampled on the uniform grid t_i = i/n over [0, 1]."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

NONNEG_SLACK = 1e-12


@functools.lru_cache(maxsize=4)  # read-only, so every caller on one grid shares them
def nodes(n: int) -> np.ndarray:
    """The uniform nodes t_i = i/n, i = 0..n, built once per n."""
    ts = np.linspace(0.0, 1.0, n + 1)
    ts.flags.writeable = False
    return ts


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
        if not np.isfinite(values).all():
            bad = int(np.argmax(~np.isfinite(values)))
            raise ValueError(f"non-finite value at t = {bad / self.n}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, c: float, n: int) -> "GridFunction":
        return cls(n, np.full(n + 1, float(c)))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def ts(self) -> np.ndarray:
        return nodes(self.n)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def min(self) -> float:
        return float(self.values.min())
