"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass line
per criterion.
"""

import math

import numpy as np

from beambvp import cli
from beambvp.exprlang import parse
from beambvp.grid import GridFunction
from beambvp.hypotheses import build_report
from beambvp.kernel import g_envelope, green_matrix, make_context
from beambvp.linear import cone_ratio, operator_matrix, polynomial_oracle
from beambvp.quadrature import DEFAULT_SETTINGS, integrate
from beambvp.solver import (
    collocation_oracle,
    interior_tolerance,
    norm_bound_check,
    picard_solve,
    residual_ode,
)

GRID_201 = np.linspace(0.0, 1.0, 201)
THETAS = (0.1, 0.25, 0.4)


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number:2d}: {message}")


def _random_nonneg_poly(rng, degree=4):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    xs = np.linspace(0.0, 1.0, 512)
    coeffs[0] += 0.05 - float(np.min(np.polynomial.polynomial.polyval(xs, coeffs)))
    return coeffs


def test_c01_kernel_nonnegativity():
    worst = float(np.min(green_matrix(GRID_201, GRID_201)))
    assert worst >= -1e-14
    _pass(1, f"min G on 201x201 grid = {worst:.3g} >= -1e-14")


def test_c02_kernel_two_sided_bound():
    envelope = g_envelope(GRID_201)
    worst_low = worst_high = math.inf
    for theta in THETAS:
        inner = GRID_201[(GRID_201 >= theta - 1e-12) & (GRID_201 <= 1.0 - theta + 1e-12)]
        gm = green_matrix(inner, GRID_201)
        worst_low = min(worst_low, float(np.min(gm - theta**3 * envelope[None, :])))
        worst_high = min(worst_high, float(np.min(envelope[None, :] - gm)))
        assert np.all(gm >= theta**3 * envelope[None, :] - 1e-12)
        assert np.all(gm <= envelope[None, :] + 1e-12)
    _pass(2, f"two-sided bound slack: lower {worst_low:.3g}, upper {worst_high:.3g} >= -1e-12")


def test_c03_boundary_identity():
    gap = float(np.max(np.abs(green_matrix(np.array([1.0]), GRID_201)[0]
                              - g_envelope(GRID_201))))
    assert gap < 1e-14
    _pass(3, f"max |G(1,s) - g(s)| = {gap:.3g} < 1e-14")


def test_c04_linear_oracle(ctx_t2):
    u = GridFunction(2000, operator_matrix(ctx_t2, 2000)(np.ones(2001)))
    coeffs = polynomial_oracle([1.0], [0.0, 0.0, 1.0])
    exact = np.polynomial.polynomial.polyval(u.ts, coeffs)
    sup = float(np.max(np.abs(u.values - exact)))
    assert sup < 1e-8
    assert abs(u.values[0] - 5.0 / 1008.0) < 1e-8
    assert abs(u.values[-1] - 19.0 / 1008.0) < 1e-8
    _pass(4, f"u = A y for y = 1, a = t^2, n = 2000: sup error {sup:.3g} < 1e-8")


def test_c05_cone_inequality():
    rng = np.random.default_rng(2024)
    loads = [_random_nonneg_poly(rng) for _ in range(20)]
    cases = 0
    for theta in THETAS:
        ctx = make_context(parse("t^2", "t"), theta=theta)
        op = operator_matrix(ctx, 400)
        for coeffs in loads:
            u = GridFunction(400, op(np.polynomial.polynomial.polyval(
                np.linspace(0.0, 1.0, 401), coeffs)))
            assert cone_ratio(u, ctx).satisfied
            cases += 1
    assert cases == 60
    _pass(5, "cone inequality satisfied in all 60 random-load cases")


def test_c06_operator_bound(ctx_t2):
    rng = np.random.default_rng(2025)
    fs = [parse(src, "u") for src in ("u", "u^2", "1", "1+u")]
    for k in range(20):
        u = GridFunction(400, rng.uniform(0.0, 1.0, 401))
        check = norm_bound_check(u, fs[k % 4], ctx_t2)
        assert check.au_norm <= check.bound + 1e-10
    _pass(6, "||Au|| <= (1/(1-alpha)) integral g f(u) + 1e-10 in all 20 cases")


def test_c07_cross_oracle_solve(ctx_t2):
    from beambvp.solver import SolveConfig

    f = parse("1+u", "u")
    config = SolveConfig(n=500)
    report = picard_solve(f, ctx_t2, config)
    colloc = collocation_oracle(f, ctx_t2, config)
    assert report.status == "converged" and colloc.status == "converged"
    gap = float(np.max(np.abs(report.solution.values - colloc.solution.values)))
    assert gap < 1e-6
    for solution in (report.solution, colloc.solution):
        res = residual_ode(solution, f, ctx_t2)
        assert res.interior < interior_tolerance(500, solution.sup_norm())
        assert res.bc < 1e-8
    _pass(7, f"picard vs collocation gap {gap:.3g} < 1e-6; residual checks pass")


def test_c08_example_a_analysis():
    problem = cli.bundled_problem("example_a")
    ctx = make_context(problem.a, theta=problem.theta, quad=problem.quad)
    report = build_report(problem.f, ctx)
    f0, finf = report.f0_estimate, report.finf_estimate
    assert abs(f0.value) < 1e-4
    assert abs(finf.value - 1.0) <= 1e-3
    cert = report.f0_certificate
    assert cert is not None
    assert cert.epsilon == 1.0 - ctx.alpha  # epsilon is exactly the maximal slope
    assert abs(cert.epsilon - 2.0 / 3.0) <= 1e-12
    assert abs(cert.rho1 - math.log(3.0)) <= 1e-6
    _pass(8, f"example A: f0 {f0.value:.2g}, finf {finf.value:.6f}, "
             f"eps = 1-alpha = {cert.epsilon!r}, rho1 = ln3 {cert.rho1 - math.log(3.0):+.2g}")


def test_c09_example_b_analysis():
    problem = cli.bundled_problem("example_b")
    ctx = make_context(problem.a, theta=problem.theta, quad=problem.quad)
    report = build_report(problem.f, ctx)
    f0, finf = report.f0_estimate, report.finf_estimate
    assert abs(finf.value) < 1e-4
    assert abs(f0.value - 1.0) <= 1e-3
    cert = report.finf_certificate
    assert cert is not None and cert.bounded_case
    assert abs(cert.L - 1.0) <= 1e-6
    _pass(9, f"example B: finf {finf.value:.2g}, f0 {f0.value:.6f}, Case 1 L = {cert.L!r}")


def test_c10_example_solves():
    bounds = {}
    for name in ("example_a", "example_b"):
        problem = cli.bundled_problem(name)
        ctx = make_context(problem.a, theta=problem.theta, quad=problem.quad)
        config = problem.config("constant 1")
        report = picard_solve(problem.f, ctx, config)
        assert report.status == "converged"
        assert report.iterations <= 500
        assert report.delta_trace[-1] < 1e-10
        assert report.solution.sup_norm() < 1e-8 and report.trivial
        start = config.initial_guess()
        bounds[name] = norm_bound_check(start, problem.f, ctx).bound
    assert bounds["example_a"] <= start.sup_norm() / 48.0 + 1e-12
    _pass(10, f"both example solves trivial; example A start bound "
              f"{bounds['example_a']:.6f} <= ||u0||/48 = {1.0 / 48.0:.6f}")


def test_c11_grid_self_consistency(tmp_path):
    text = "f = 1+u\na = t^2\ngrid_n = {n}\n"
    csvs = {}
    for n in (200, 1600):
        problem_path = tmp_path / f"n{n}.problem"
        problem_path.write_text(text.format(n=n))
        out = tmp_path / f"n{n}.csv"
        assert cli.main(["solve", str(problem_path), "--out", str(out)]) == 0
        with open(out) as handle:
            handle.readline()
            csvs[n] = np.array([float(line.split(",")[1]) for line in handle])
    gap = float(np.max(np.abs(csvs[200] - csvs[1600][::8])))
    assert gap < 1e-6
    _pass(11, f"n=200 vs n=1600 solve gap {gap:.3g} < 1e-6")


def test_c12_quadrature_values():
    sq = integrate(lambda s: s * s, 0.0, 1.0, DEFAULT_SETTINGS)
    env = integrate(g_envelope, 0.0, 1.0, DEFAULT_SETTINGS)
    beta = integrate(lambda s: s * s, 0.25, 0.75, DEFAULT_SETTINGS)
    assert abs(sq - 1.0 / 3.0) <= 1e-12
    assert abs(env - 1.0 / 72.0) <= 1e-12
    assert abs(beta - 13.0 / 96.0) <= 1e-12
    _pass(12, "integral s^2 = 1/3, integral g = 1/72, beta(1/4, t^2) = 13/96, all to 1e-12")
