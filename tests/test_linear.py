from math import comb

import numpy as np
import pytest
import scipy.integrate

from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.grid import GridFunction
from beambvp.kernel import correction_values, make_context
from beambvp.linear import (
    _PANEL_MOMENTS,
    _partial_moment3,
    cone_ratio,
    operator_matrix,
    polynomial_oracle,
)
from beambvp.quadrature import QuadratureSettings
from beambvp.solver import _ode_defects

# exact solution for y = 1, a = t^2: u = -t^4/24 + t^3/18 + 5/1008
ORACLE_Y1 = np.array([5.0 / 1008.0, 0.0, 0.0, 1.0 / 18.0, -1.0 / 24.0])
GRID_201 = np.linspace(0.0, 1.0, 201)


def poly_source(coeffs) -> str:
    terms = [f"{float(c)!r}*t^{k}" if k else f"{float(c)!r}" for k, c in enumerate(coeffs)]
    return "+".join(terms)


def poly_grid(coeffs, n) -> GridFunction:
    ts = np.linspace(0.0, 1.0, n + 1)
    return GridFunction(n, np.polynomial.polynomial.polyval(ts, coeffs))


def random_nonneg_poly(rng, degree):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    xs = np.linspace(0.0, 1.0, 512)
    coeffs[0] += 0.05 - float(np.min(np.polynomial.polynomial.polyval(xs, coeffs)))
    return coeffs


def solve_linear(y: GridFunction, ctx) -> GridFunction:
    """u with u'''' + y = 0 under the problem's boundary conditions."""
    return GridFunction(y.n, operator_matrix(ctx, y.n)(y.values))


def random_weight_poly(rng, degree):
    coeffs = rng.uniform(0.0, 1.0, degree + 1)
    mass = sum(c / (k + 1) for k, c in enumerate(coeffs))
    return coeffs * (rng.uniform(0.05, 0.95) / mass)


def test_solve_linear_zero_load(ctx_t2):
    u = solve_linear(GridFunction.constant(0.0, 200), ctx_t2)
    assert u.sup_norm() == 0.0


def test_solve_linear_unit_load_matches_oracle(ctx_t2):
    u = solve_linear(GridFunction.constant(1.0, 2000), ctx_t2)
    exact = np.polynomial.polynomial.polyval(u.ts, ORACLE_Y1)
    assert float(np.max(np.abs(u.values - exact))) < 1e-8
    assert u.values[0] == pytest.approx(5.0 / 1008.0, abs=1e-8)
    assert u.values[-1] == pytest.approx(19.0 / 1008.0, abs=1e-8)
    assert u.values[500] == pytest.approx(731.0 / 129024.0, abs=1e-8)


def test_solve_linear_unit_load_large_grid(ctx_t2):
    n = 102400  # the operator is O(n) in time and memory
    u = solve_linear(GridFunction.constant(1.0, n), ctx_t2)
    exact = np.polynomial.polynomial.polyval(u.ts, ORACLE_Y1)
    assert float(np.max(np.abs(u.values - exact))) < 1e-8


def test_operator_constant_term_matches_correction_values(ctx_t2):
    # G(0, s) = 0, so u(0) is the constant term, integral of c(s) y(s) ds.
    # y is quadratic and c is cubic between the correction rule's
    # abscissae, so 3-point Gauss between them is exact.
    y_coeffs = [0.5, 1.0, -0.75]
    u = operator_matrix(ctx_t2, 200)(np.polynomial.polynomial.polyval(GRID_201, y_coeffs))
    breaks = np.unique(np.concatenate(([0.0, 1.0], ctx_t2.taus)))
    gx, gw = np.polynomial.legendre.leggauss(3)
    mid, half = (breaks[1:] + breaks[:-1]) / 2.0, np.diff(breaks) / 2.0
    ss = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    expected = np.dot(ws, correction_values(ctx_t2, ss) * np.polynomial.polynomial.polyval(ss, y_coeffs))
    assert u[0] == pytest.approx(expected, rel=1e-13)


def _interpolant(values):
    """Scalar piecewise-quadratic interpolant of grid values on node-pair panels."""
    panels = (len(values) - 1) // 2

    def y(s):
        p = min(int(s * panels), panels - 1)
        z = s * panels - p
        y0, y1, y2 = values[2 * p : 2 * p + 3]
        return y0 * (1 - z) * (1 - 2 * z) + 4 * y1 * z * (1 - z) + y2 * z * (2 * z - 1)

    return y


@pytest.mark.parametrize("n", [20, 200])
def test_operator_matches_adaptive_quadrature(n):
    # independent reference: v(t) = integral of G(t, s) y(s) ds by adaptive
    # quadrature, split at t and the panel ends, plus the correction rule's
    # constant sum of w a(tau) v(tau) / (1 - alpha)
    ctx = make_context(parse("t^2", "t"), quad=QuadratureSettings(panels=8))
    values = np.random.default_rng(n).uniform(0.1, 1.0, n + 1)
    y = _interpolant(values)
    panel_ends = np.linspace(0.0, 1.0, n // 2 + 1)[1:-1]

    def v(t):
        points = np.union1d(panel_ends, [t] if 0.0 < t < 1.0 else [])
        green_y = lambda s: (t**3 * (1 - s) ** 2 - max(t - s, 0.0) ** 3) / 6.0 * y(s)
        return scipy.integrate.quad(
            green_y, 0.0, 1.0, points=points, limit=2 * len(points) + 10, epsabs=0.0, epsrel=2e-14
        )[0]

    constant = sum(w * v(tau) for tau, w in zip(ctx.taus, ctx.tau_weights))
    rows = np.r_[0 : n + 1 : 7, n]
    expected = np.array([v(t) for t in rows / n]) + constant
    u = operator_matrix(ctx, n)(values)
    assert np.max(np.abs(u[rows] - expected) / expected) < 1e-13


def reference_operator(ctx, n):
    """The apply that evaluated every node and abscissa by the in-panel
    formula, kept as the bit-level reference for ``operator_matrix``."""
    panels = n // 2
    d = 1.0 / panels
    x = np.concatenate((np.arange(n + 1) / 2.0, ctx.taus * panels))
    p = np.minimum(x.astype(int), panels - 1)
    xi = x - p
    panel_ends = 2 * p + np.arange(3)[:, None]
    dx, moment3, cube = xi * d, _partial_moment3(xi), (x * d) ** 3

    def apply(y):
        y = np.asarray(y, dtype=float).reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.stack([y[0:-1:2], y[1::2], y[2::2]])
            local = (_PANEL_MOMENTS @ ends) * d ** np.arange(1, 5)[:, None]
            j = np.zeros((4, panels + 1))
            for m in range(4):
                shift = sum(comb(m, k) * d ** (m - k) * j[k, :-1] for k in range(m))
                j[m, 1:] = np.cumsum(local[m] + shift)
            j3 = j[3][p] + dx * (3.0 * j[2][p] + dx * (3.0 * j[1][p] + dx * j[0][p]))
            j3 += d**4 * np.einsum("bk,bk->k", moment3, y[panel_ends])
            v = (cube * j[2, -1] - j3) / 6.0
            return v[: n + 1] + ctx.tau_weights @ v[n + 1 :]

    return apply


def _reference_loads(n):
    rng = np.random.default_rng(n)
    signed = 10.0 ** rng.uniform(-5.0, 5.0, n + 1)
    signed[rng.integers(0, n + 1, n // 4)] = -0.0
    yield from (10.0 ** rng.uniform(-5.0, 5.0, n + 1) for _ in range(4))
    yield np.zeros(n + 1)
    yield np.full(n + 1, -0.0)
    yield signed
    yield np.where(rng.random(n + 1) < 0.5, 5e-324, -0.0)  # subnormal panel moments


@pytest.mark.parametrize("quad_panels", [1, 7, 200])
@pytest.mark.parametrize("n", [20, 22, 800, 3200])
def test_operator_bit_identical_to_reference(n, quad_panels):
    ctx = make_context(parse("0.9*t^2", "t"), quad=QuadratureSettings(panels=quad_panels))
    op, ref = operator_matrix(ctx, n), reference_operator(ctx, n)
    for y in _reference_loads(n):
        assert np.array_equal(op(y).view(np.int64), ref(y).view(np.int64))
    overflowing = np.full(n + 1, np.finfo(float).max)
    expected = np.isfinite(ref(overflowing))
    assert not expected.all()
    assert np.array_equal(np.isfinite(op(overflowing)), expected)


def test_operator_matrix_needs_even_grid(ctx_t2):
    with pytest.raises(ValueError):
        operator_matrix(ctx_t2, 201)


def test_polynomial_oracle_unit_load():
    coeffs = polynomial_oracle([1.0], [0.0, 0.0, 1.0])
    assert np.array_equal(coeffs, ORACLE_Y1)


def test_polynomial_oracle_zero_load():
    assert np.all(polynomial_oracle([0.0], [0.0, 0.0, 1.0]) == 0.0)


def test_polynomial_oracle_scales_linearly():
    coeffs = polynomial_oracle([24.0], [0.0, 0.0, 1.0])
    assert coeffs == pytest.approx(24.0 * ORACLE_Y1, abs=1e-16)
    assert coeffs[0] == pytest.approx(5.0 / 42.0, abs=1e-16)


def test_polynomial_oracle_rejects_bad_mass():
    with pytest.raises(HypothesisViolation):
        polynomial_oracle([1.0], [2.0])  # alpha = 2
    with pytest.raises(HypothesisViolation):
        polynomial_oracle([1.0], [0.0])  # alpha = 0


def test_oracle_equivalence_random_polynomials():
    rng = np.random.default_rng(42)
    n = 2000
    for _ in range(10):
        y_coeffs = random_nonneg_poly(rng, 4)
        a_coeffs = random_weight_poly(rng, 3)
        ctx = make_context(parse(poly_source(a_coeffs), "t"))
        u = solve_linear(poly_grid(y_coeffs, n), ctx)
        exact = np.polynomial.polynomial.polyval(u.ts, polynomial_oracle(y_coeffs, a_coeffs))
        assert float(np.max(np.abs(u.values - exact))) < 1e-8


def test_nonnegativity_of_solutions(ctx_t2):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = solve_linear(poly_grid(random_nonneg_poly(rng, 4), 400), ctx_t2)
        assert u.min() >= -1e-10


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_cone_inequality_for_random_loads(theta):
    rng = np.random.default_rng(11)
    ctx = make_context(parse("t^2", "t"), theta=theta)
    for _ in range(20):
        u = solve_linear(poly_grid(random_nonneg_poly(rng, 4), 400), ctx)
        assert cone_ratio(u, ctx).satisfied


def test_linearity(ctx_t2):
    rng = np.random.default_rng(3)
    y = poly_grid(random_nonneg_poly(rng, 4), 400)
    u = solve_linear(y, ctx_t2)
    u_scaled = solve_linear(GridFunction(y.n, 3.7 * y.values), ctx_t2)
    err = float(np.max(np.abs(u_scaled.values - 3.7 * u.values)))
    assert err <= 1e-12 * max(1.0, 3.7 * u.sup_norm())


def test_boundary_conditions_of_solutions(ctx_t2):
    rng = np.random.default_rng(5)
    n = 2000
    loads = [np.array([1.0])] + [random_nonneg_poly(rng, 4) for _ in range(3)]
    for coeffs in loads:
        y = poly_grid(coeffs, n)
        rows = _ode_defects(solve_linear(y, ctx_t2), y.values, ctx_t2)
        assert rows[0] < 1e-6  # u'(0)
        assert rows[-2] < 1e-6  # u'(1)
        assert rows[1] < 1e-6  # u''(0)
        assert rows[-1] < 1e-8  # u(0) - integral of a u


def test_cone_ratio_zero_function(ctx_t2):
    check = cone_ratio(GridFunction.constant(0.0, 400), ctx_t2)
    assert check.satisfied
    assert check.ratio is None
    assert check.min_inner == 0.0


def test_cone_ratio_oracle_solution(ctx_t2):
    u = poly_grid(ORACLE_Y1, 2000)
    check = cone_ratio(u, ctx_t2)
    # u is increasing, so the inner minimum is u(1/4) = 731/129024
    assert check.min_inner == pytest.approx(731.0 / 129024.0, abs=1e-15)
    assert check.threshold == pytest.approx(77.0 / 6144.0, abs=1e-14)
    assert check.threshold * check.norm == pytest.approx(0.00023623, abs=1e-8)
    assert check.satisfied


def test_cone_ratio_is_pure_inequality_evaluator(ctx_t2):
    # u(t) = t is not a solution of anything; the check just evaluates
    u = GridFunction(400, np.linspace(0.0, 1.0, 401))
    check = cone_ratio(u, ctx_t2)
    assert check.min_inner == pytest.approx(0.25, abs=1e-15)
    assert check.norm == 1.0
    assert check.satisfied  # 0.25 >= 0.012533 * 1


def test_cone_ratio_detects_violations(ctx_t2):
    values = np.full(401, 1.0)
    values[100:301] = 1e-6  # collapse the inner interval
    check = cone_ratio(GridFunction(400, values), ctx_t2)
    assert not check.satisfied
