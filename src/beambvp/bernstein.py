"""Exact proofs of the kernel inequalities by Bernstein coefficients: all >= 0
prove a polynomial >= 0 on [0, 1]^2, and a negative corner one is its value at a
vertex (Garloff, LNCS 212, 1986; Farouki, CAGD 29, 2012)."""

from fractions import Fraction
from math import comb

import numpy as np

from . import kernel


class Poly(dict):
    """{(i, j): coefficient of v^i w^j}; numbers, floats too, enter as exact Fractions."""

    def __init__(self, x=0):
        super().__init__(x if isinstance(x, dict) else {(0, 0): Fraction(x)})

    def __add__(self, other):
        out = Poly(self)
        for key, c in Poly(other).items():
            out[key] = out.get(key, 0) + c
        return out

    def __mul__(self, other):
        out, other = Poly(), Poly(other)
        for (i, j), c in self.items():
            for (k, l), d in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
        return out

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -Poly(other)

    def __rsub__(self, other):
        return Poly(other) - self

    def __truediv__(self, x):
        return self * (1 / Fraction(x))

    def __pow__(self, n: int):
        return self * self ** (n - 1) if n else Poly(1)


V, W = Poly({(1, 0): 1}), Poly({(0, 1): 1})


def bernstein(p: Poly) -> np.ndarray:
    """Bernstein coefficients of p on [0, 1]^2 at its degrees in v and w."""
    a = np.zeros([max(key[axis] for key in p) + 1 for axis in (0, 1)], dtype=object)
    for key, c in p.items():
        a[key] = c
    to_v, to_w = (np.array([[Fraction(comb(k, i), comb(d - 1, i)) for i in range(d)]
                            for k in range(d)]) for d in a.shape)
    return to_v @ a @ to_w.T


def prove(gap, t0, t1) -> tuple:
    """(verdict, lower, where) for gap(G(t, s), t, s) >= 0 on [t0, t1] x [0, 1], G by
    its branch on the triangles s = t v and s = t + (1 - t) v, t = t0 + (t1 - t0) w,
    each mapped to (v, w) in [0, 1]^2, and t0, t1 exact (int or Fraction): lower is the
    least Bernstein coefficient, a certified lower bound, and where a vertex (t, s)
    with the gap negative, or None."""
    t_of = lambda w: t0 + (t1 - t0) * w
    lows, where = [], []
    for branch, s_of in ((kernel.green_s_le_t, lambda t, v: t * v),
                         (kernel.green_s_ge_t, lambda t, v: t + (1 - t) * v)):
        t, s = t_of(W), s_of(t_of(W), V)
        b = bernstein(gap(branch(t, s), t, s))
        lows.append(min(b.flat))
        corners = [(v, w) for v in (0, 1) for w in (0, 1) if b[-v, -w] < 0]  # b[-v, -w] = p(v, w)
        where += [(t_of(w), s_of(t_of(w), v)) for v, w in corners]
    verdict = "proven" if min(lows) >= 0 else "refuted" if where else "undetermined"
    return verdict, min(lows), where[0] if where else None
