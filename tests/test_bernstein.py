"""Exact Bernstein proofs of the kernel lemma: verdicts, refuting vertices
and the certified lower bound against a float sample."""

from fractions import Fraction

import numpy as np
import pytest

from beambvp import cli, kernel
from beambvp.bernstein import V, W, bernstein, prove

g = kernel.g_envelope


def lower_gap(c, theta):
    """G - c theta^3 g on [theta, 1 - theta] x [0, 1]; c = 1 is the lemma."""
    th = Fraction(theta)
    return lambda G, t, s: G - c * th**3 * g(s), th, 1 - th


def test_bernstein_coefficients_of_known_polynomials():
    assert bernstein(V * W).tolist() == [[0, 0], [0, 1]]
    assert bernstein(1 - 2 * V + V**2).tolist() == [[1], [0], [0]]  # (1 - v)^2
    assert bernstein(W / 6.0 + 0.5).tolist() == [[Fraction(1, 2), Fraction(2, 3)]]


@pytest.mark.parametrize("theta", [1e-9, 0.01, 0.1, 0.2, 0.25, 1 / 3, 0.4, 0.45, 0.49,
                                   0.5 - 1e-9])
def test_kernel_lemma_proven(theta):
    rows = cli._kernel_proofs([theta])
    assert [(r["check"], r["verdict"]) for r in rows] == [
        ("nonnegativity", "proven"), ("lower-bound", "proven"), ("upper-bound", "proven"),
        ("boundary-identity", "proven")]
    assert rows[-1]["value"] == 0.0  # G(1, s) - g(s) is the zero polynomial
    assert all(r["t"] is None and r["s"] is None for r in rows)


@pytest.mark.parametrize("c, theta", [(27, 0.1), (8, 0.25), (3, 0.4)])
def test_false_lower_constant_refuted_at_vertex(c, theta):
    verdict, lower, where = prove(*lower_gap(c, theta))
    assert verdict == "refuted" and lower < 0
    assert where == (Fraction(theta), Fraction(theta))


def test_negative_only_inside_is_undetermined():
    # t in [1, 1] gives s = v on the triangle s <= t: the gap is (2v - 1)^2 + 1/100
    verdict, lower, where = prove(lambda G, t, s: (2 * s - 1) ** 2 + Fraction(1, 100), 1, 1)
    assert (verdict, lower, where) == ("undetermined", Fraction(-99, 100), None)


@pytest.mark.parametrize("c, theta", [(1, 0.3), (2, 0.2), (27, 0.1), (8, 0.25), (3, 0.4)])
def test_certified_lower_bound_below_sampled_minimum(c, theta):
    verdict, lower, _ = prove(*lower_gap(c, theta))
    ts, ss = np.linspace(theta, 1.0 - theta, 101), np.linspace(0.0, 1.0, 101)
    sampled = kernel.green_matrix(ts, ss) - c * theta**3 * kernel.g_envelope(ss)[None, :]
    assert lower <= float(np.min(sampled))
    assert (verdict == "proven") == (lower >= 0)
