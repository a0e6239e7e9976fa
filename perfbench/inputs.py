"""Seeded problem generator with analytically known answers.

Every generated nonlinearity f comes from a family whose limits
f0 = lim f(u)/u (u -> 0+), finf = lim f(u)/u (u -> inf) and global
Lipschitz constant on [0, inf) are known in closed form, together with a
numpy twin used only by the checkers.  The program under test sees only
the expression text (inside a problem file, or as a string to parse).

Boundary weights are a(t) = k t^m with m in {1, 2, 3}, so the total mass
alpha = k / (m + 1) is exact and composite Simpson integrates it exactly.

The same seed always gives the same inputs.  Workload schedules are built
from fixed cycles of "slots" (grid size, family, f(0) > 0 or not,
contraction rung); the seed only jitters the continuous parameters.  So
every run of a workload sees the same mix, and a per-run median compares
like with like across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INF = math.inf

# max over x >= 0 of |x (2 - x) exp(-x)|, attained at x = 2 - sqrt(2):
# the Lipschitz constant of u^2 exp(-b u) is this times 1/b
_QHUMP_SLOPE = (2.0 * math.sqrt(2.0) - 2.0) * math.exp(math.sqrt(2.0) - 2.0)

TOL = 1e-10
MAX_ITER = 500
THETA = 0.25
QUAD_PANELS = 200


def _num(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class Family:
    """One closed-form family; parameters c, b, d (d = f(0))."""

    text: Callable[[float, float, float], str]
    twin: Callable[[np.ndarray, float, float, float], np.ndarray]
    f0: Callable[[float, float, float], float]
    finf: Callable[[float, float, float], float]
    lip: Callable[[float, float, float], float]  # inf when unbounded
    argmax: Callable[[float, float, float], float]  # interior maximiser, or nan


FAMILIES = {
    "sat": Family(
        lambda c, b, d: f"{_num(c)}*u/(1+u) + {_num(d)}",
        lambda u, c, b, d: c * u / (1.0 + u) + d,
        lambda c, b, d: INF if d > 0 else c,
        lambda c, b, d: 0.0,
        lambda c, b, d: c,
        lambda c, b, d: math.nan,
    ),
    "hump": Family(
        lambda c, b, d: f"{_num(c)}*u*exp(-{_num(b)}*u) + {_num(d)}",
        lambda u, c, b, d: c * u * np.exp(-b * u) + d,
        lambda c, b, d: INF if d > 0 else c,
        lambda c, b, d: 0.0,
        lambda c, b, d: c,
        lambda c, b, d: 1.0 / b,
    ),
    "expsat": Family(
        lambda c, b, d: f"{_num(c)}*(1-exp(-{_num(b)}*u)) + {_num(d)}",
        lambda u, c, b, d: c * (1.0 - np.exp(-b * u)) + d,
        lambda c, b, d: INF if d > 0 else c * b,
        lambda c, b, d: 0.0,
        lambda c, b, d: c * b,
        lambda c, b, d: math.nan,
    ),
    "qhump": Family(
        lambda c, b, d: f"{_num(c)}*u^2*exp(-{_num(b)}*u) + {_num(d)}",
        lambda u, c, b, d: c * u**2 * np.exp(-b * u) + d,
        lambda c, b, d: INF if d > 0 else 0.0,
        lambda c, b, d: 0.0,
        lambda c, b, d: _QHUMP_SLOPE * c / b,
        lambda c, b, d: 2.0 / b,
    ),
    # c u^2 + b u^3: superlinear, f0 = 0 and finf divergent (d unused, 0)
    "poly": Family(
        lambda c, b, d: f"{_num(c)}*u^2 + {_num(b)}*u^3",
        lambda u, c, b, d: c * u**2 + b * u**3,
        lambda c, b, d: 0.0,
        lambda c, b, d: INF,
        lambda c, b, d: INF,
        lambda c, b, d: math.nan,
    ),
}


@dataclass(frozen=True)
class Weight:
    k: float
    m: int

    @property
    def text(self) -> str:
        return f"{_num(self.k)}*t^{self.m}"

    @property
    def alpha(self) -> float:
        return self.k / (self.m + 1)

    def twin(self, t: np.ndarray) -> np.ndarray:
        return self.k * t**self.m


@dataclass(frozen=True)
class Case:
    """One generated operation input with its analytic answers."""

    family: str
    c: float
    b: float
    d: float
    weight: Weight
    n: int
    q: float  # contraction bound Lip / (72 (1 - alpha)); inf when unbounded

    @property
    def fam(self) -> Family:
        return FAMILIES[self.family]

    @property
    def f_text(self) -> str:
        return self.fam.text(self.c, self.b, self.d)

    def f_twin(self, u: np.ndarray) -> np.ndarray:
        return self.fam.twin(np.asarray(u, dtype=float), self.c, self.b, self.d)

    @property
    def f0(self) -> float:
        return self.fam.f0(self.c, self.b, self.d)

    @property
    def finf(self) -> float:
        return self.fam.finf(self.c, self.b, self.d)

    @property
    def argmax(self) -> float:
        return self.fam.argmax(self.c, self.b, self.d)

    def problem_text(self) -> str:
        return (
            f"# generated: family {self.family}, contraction bound q = {self.q!r}\n"
            f"f = {self.f_text}\n"
            f"a = {self.weight.text}\n"
            f"theta = {THETA}\n"
            f"grid_n = {self.n}\n"
            f"quad_panels = {QUAD_PANELS}\n"
            f"tol = {TOL}\n"
            f"max_iter = {MAX_ITER}\n"
            f"u0 = constant 1\n"
        )


def _r(x: float) -> float:
    return round(float(x), 4)


def random_weight(rng: np.random.Generator) -> Weight:
    m = int(rng.integers(1, 4))
    k = _r(rng.uniform(0.15, 0.6) * (m + 1))
    return Weight(k=k, m=m)


def contracting_case(
    rng: np.random.Generator, family: str, q: float, positive: bool, weight: Weight, n: int
) -> Case:
    """A case of a bounded-slope family whose contraction bound is ~q.

    c (and b) are drawn so that Lip / (72 (1 - alpha)) = q up to the
    4-digit rounding of the printed parameters; q is then recomputed
    from the rounded values.
    """
    scale = 72.0 * (1.0 - weight.alpha)
    b = _r(rng.uniform(0.5, 2.0))
    d = _r(rng.uniform(0.05, 1.0)) if positive else 0.0
    if family == "expsat":
        c = _r(q * scale / b)
    else:
        c = _r(q * scale)
    lip = FAMILIES[family].lip(c, b, d)
    return Case(family, c, b, d, weight, n, lip / scale)


def analysis_case(rng: np.random.Generator, family: str, positive: bool) -> Case:
    weight = random_weight(rng)
    c = _r(rng.uniform(0.5, 5.0))
    b = _r(rng.uniform(0.2, 3.0))
    d = _r(rng.uniform(0.05, 1.0)) if positive else 0.0
    lip = FAMILIES[family].lip(c, b, d)
    return Case(family, c, b, d, weight, 800, lip / (72.0 * (1.0 - weight.alpha)))


# --- workload schedules ----------------------------------------------------

SOLVE_GRIDS = (800, 1600, 3200)
PICARD_FAMILIES = ("sat", "hump", "expsat")
SOLVE_SLOTS = (("expsat", False), ("hump", True), ("sat", True))  # per grid size
PICARD_N = 3200
PICARD_RUNGS = (0.40, 0.49, 0.58, 0.67, 0.76, 0.85)
PICARD_POSITIVE = (True, True, False, True, True, False)
ANALYZE_SLOTS = (
    ("sat", True),
    ("sat", False),
    ("hump", True),
    ("hump", False),
    ("expsat", True),
    ("qhump", True),
    ("qhump", False),
    ("poly", False),
)


def solve_cycle(rng: np.random.Generator) -> list[Case]:
    """One n = 800 / 1600 / 3200 triple; two of three have f(0) > 0.

    Each grid size keeps its family, so the per-run median (an n = 1600
    solve) compares the same kind of problem across seeds.  Small
    contraction bounds (q in [0.05, 0.1]) keep Picard at 7-9 iterations,
    so the operator build and the collocation oracle (3 Newton steps)
    dominate.
    """
    return [
        contracting_case(rng, family, rng.uniform(0.05, 0.1), positive, random_weight(rng), n)
        for n, (family, positive) in zip(SOLVE_GRIDS, SOLVE_SLOTS)
    ]


def picard_cycle(rng: np.random.Generator, weight: Weight) -> list[Case]:
    """Six contraction rungs q in [0.4, 0.85]; four of six have f(0) > 0."""
    cases = []
    for slot, rung in enumerate(PICARD_RUNGS):
        family = PICARD_FAMILIES[slot % 3]
        q = rung + rng.uniform(-0.02, 0.02)
        cases.append(
            contracting_case(rng, family, q, PICARD_POSITIVE[slot], weight, PICARD_N)
        )
    return cases


def analyze_cycle(rng: np.random.Generator) -> list[Case]:
    return [analysis_case(rng, family, positive) for family, positive in ANALYZE_SLOTS]


def make_schedule(workload: str, seed: int, cycles: int) -> list[list[Case]]:
    """`cycles` input cycles for a workload; the same seed gives the same list.

    picard-reuse draws one weight per run, since its context is built once.
    It is k t^2 with alpha in [0.3, 0.4]: the Picard rate relative to the
    bound q depends on the weight's shape, so a narrow weight range keeps
    the iteration count of each rung, and the per-run median, steady."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    weight = Weight(k=_r(rng.uniform(0.9, 1.2)), m=2) if workload == "picard-reuse" else None
    make = {
        "solve-fresh": lambda: solve_cycle(rng),
        "picard-reuse": lambda: picard_cycle(rng, weight),
        "analyze-scan": lambda: analyze_cycle(rng),
    }[workload]
    return [make() for _ in range(cycles)]
