import gc
import math
import weakref

import numpy as np
import pytest

from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.grid import GridFunction
from beambvp.hypotheses import check_h1_h2
from beambvp.kernel import make_context
from beambvp.linear import cone_ratio, operator_matrix
from beambvp.quadrature import QuadratureSettings
from beambvp import solver
from beambvp.solver import (
    BoundCheck,
    OdeResidual,
    SolveConfig,
    _f_derivative,
    agreement_bound,
    apply_A,
    collocation_oracle,
    interior_tolerance,
    norm_bound_check,
    picard_solve,
    residual_ode,
)

F_ONE = parse("1", "u")
F_AFFINE = parse("1+u", "u")
F_SATURATING = parse("u*(1-exp(-u))", "u")
F_BOUNDED = parse("1-exp(-u)", "u")
F_ZERO = parse("0", "u")

ORACLE_Y1 = np.array([5.0 / 1008.0, 0.0, 0.0, 1.0 / 18.0, -1.0 / 24.0])


def oracle_grid(n):
    ts = np.linspace(0.0, 1.0, n + 1)
    return GridFunction(n, np.polynomial.polynomial.polyval(ts, ORACLE_Y1))


# --- apply_A ---------------------------------------------------------------


def test_apply_A_zero_nonlinearity(ctx_t2):
    _, au = apply_A(GridFunction.constant(1.0, 200).values, F_ZERO, operator_matrix(ctx_t2, 200))
    assert GridFunction(200, au).sup_norm() == 0.0


def test_apply_A_constant_f_is_linear_solve(ctx_t2):
    op = operator_matrix(ctx_t2, 2000)
    au = GridFunction(2000, apply_A(GridFunction.constant(0.0, 2000).values, F_ONE, op)[1])
    exact = np.polynomial.polynomial.polyval(au.ts, ORACLE_Y1)
    assert float(np.max(np.abs(au.values - exact))) < 1e-8


def test_apply_A_at_zero_with_vanishing_f(ctx_t2):
    _, au = apply_A(GridFunction.constant(0.0, 400).values, F_BOUNDED, operator_matrix(ctx_t2, 400))
    assert GridFunction(400, au).sup_norm() == 0.0


def test_apply_A_rejects_negative_input(ctx_t2):
    with pytest.raises(ValueError):
        apply_A(GridFunction.constant(-1.0, 200).values, F_ONE, operator_matrix(ctx_t2, 200))


def test_apply_A_rejects_negative_f(ctx_t2):
    with pytest.raises(HypothesisViolation) as exc:
        apply_A(GridFunction.constant(0.0, 200).values, parse("u-1", "u"), operator_matrix(ctx_t2, 200))
    assert exc.value.which == "H1"


@pytest.mark.parametrize(
    "f_text, u0, f_fails",
    [("exp(u)", 709.7825, False), ("0.001*exp(u)", 800.0, True)],
    ids=["A-overflows", "f-fails"],
)
def test_apply_A_reports_failure_as_none(ctx_t2, f_text, u0, f_fails):
    u = GridFunction.constant(u0, 40)
    fvals, au = apply_A(u.values, parse(f_text, "u"), operator_matrix(ctx_t2, 40))
    assert au is None and (fvals is None) == f_fails
    if not f_fails:  # f(u0) ~ 1.8e308 is finite, A f(u0) is not
        assert np.array_equal(fvals, parse(f_text, "u")(u.values))


def test_apply_A_and_picard_share_no_arrays(ctx_t2):
    # apply_A clamps a copy of its input, and the report's solution is its own
    # read-only array, so no caller's array is changed through another
    v = np.linspace(-1e-13, 1.0, 201)
    before = v.copy()
    fvals, au = apply_A(v, parse("u", "u"), operator_matrix(ctx_t2, 200))
    assert np.array_equal(v, before)
    assert not (np.shares_memory(fvals, v) or np.shares_memory(au, v) or np.shares_memory(au, fvals))
    report = picard_solve(F_AFFINE, ctx_t2, SolveConfig(n=200, u0=1.0))
    assert not report.solution.values.flags.writeable
    assert not np.shares_memory(report.solution.values, report.au)


def test_apply_A_output_nonnegative(ctx_t2):
    rng = np.random.default_rng(23)
    op = operator_matrix(ctx_t2, 400)
    for f in (F_ONE, F_AFFINE, parse("u^2", "u")):
        for _ in range(5):
            u = GridFunction(400, rng.uniform(0.0, 1.0, 401))
            assert apply_A(u.values, f, op)[1].min() >= -1e-12


# --- picard_solve ----------------------------------------------------------


def test_picard_constant_f_converges_in_two_iterations(ctx_t2):
    report = picard_solve(F_ONE, ctx_t2, SolveConfig(n=500))
    assert report.status == "converged"
    assert report.iterations <= 2
    assert report.residual_integral < 1e-12
    assert not report.trivial


def test_picard_saturating_f_contracts_to_zero(ctx_t2):
    report = picard_solve(F_SATURATING, ctx_t2, SolveConfig(n=400, u0=1.0))
    assert report.status == "converged"
    assert report.trivial
    assert report.solution.sup_norm() < 1e-8


def test_picard_affine_f_matches_collocation(ctx_t2):
    config = SolveConfig(n=500)
    report = picard_solve(F_AFFINE, ctx_t2, config)
    colloc = collocation_oracle(F_AFFINE, ctx_t2, config)
    assert report.status == "converged" and not report.trivial
    assert colloc.status == "converged"
    gap = float(np.max(np.abs(report.solution.values - colloc.solution.values)))
    assert gap < 1e-6


def test_weight_evaluated_once_per_operator(ctx_t2):
    calls = []

    def counting_weight(ts):
        calls.append(ts)
        return ctx_t2.weight(ts)

    ctx = make_context(counting_weight)
    assert len(calls) == 1  # one sampling gives H2, alpha, beta and the rule
    calls.clear()
    check_h1_h2(F_ONE, counting_weight)
    assert len(calls) == 1
    calls.clear()
    op = operator_matrix(ctx, 400)  # the context carries the correction rule
    op(np.ones(401))
    assert len(calls) == 0
    # the grid nodes, for the ODE rows: sampled by the first solve on (ctx, 400), then reused
    for f, u0, iterations, samplings in ((F_ONE, 0.0, 2, 1), (F_AFFINE, 1.0, 5, 0)):
        calls.clear()
        report = picard_solve(f, ctx, SolveConfig(n=400, u0=u0))
        assert report.iterations == iterations
        assert len(calls) == samplings


def test_contexts_with_equal_constants_keep_their_own_operators():
    # a = 0.5 gives alpha = 0.5 and beta = 0.25 exactly under any rule, but
    # the rule's abscissae move the correction, hence the operator
    a = parse("0.5", "t")
    contexts = [make_context(a, quad=QuadratureSettings(panels)) for panels in (7, 200)]
    assert [(c.alpha, c.beta) for c in contexts] == [(0.5, 0.25)] * 2
    assert contexts[0] != contexts[1]
    y = np.ones(401)
    fresh = [operator_matrix(ctx, 400)(y) for ctx in contexts]
    assert np.max(np.abs(fresh[0] - fresh[1])) > 1e-8
    for ctx, expected in zip(contexts, fresh):
        assert np.array_equal(solver._discretization(ctx, 400).op(y), expected)


def test_one_discretization_per_context_and_grid(ctx_t2, monkeypatch):
    n, builds, samplings = 3200, [], []

    def counting_build(ctx, n):
        builds.append(n)
        return operator_matrix(ctx, n)

    def counting_weight(ts):
        samplings.append(len(ts))
        return ctx_t2.weight(ts)

    monkeypatch.setattr(solver, "operator_matrix", counting_build)
    ctx, config = make_context(counting_weight), SolveConfig(n=n, u0=1.0)
    for _ in range(2):
        report = picard_solve(F_AFFINE, ctx, config)
    assert norm_bound_check(report.solution, F_AFFINE, ctx).holds
    assert builds == [n] and samplings.count(n + 1) == 1
    # a solve on another context replaces the only entry, releasing the first
    first = weakref.ref(ctx)
    del ctx
    picard_solve(F_AFFINE, make_context(parse("t", "t")), config)
    gc.collect()
    assert first() is None and builds == [n, n]


@pytest.mark.parametrize(
    "f_text, u0, max_iter, status, iterations",
    [("1+u", 1.0, 500, "converged", 5), ("1+u", 1.0, 3, "max_iter", 3),
     ("exp(u)", 709.7825, 500, "diverged", 0), ("0.001*exp(u)", 800.0, 500, "diverged", 0)],
    ids=["converged", "max_iter", "A-overflows-at-u0", "f-fails-at-u0"],
)
def test_picard_evaluates_f_once_per_iterate(ctx_t2, monkeypatch, f_text, u0, max_iter, status,
                                             iterations):
    # one apply_A, and so one f evaluation, per iterate: u0's also gives the
    # start bound, and the returned iterate's the report, whose ODE residual
    # reads it too; a run that diverges at u0 costs one
    f, f_calls, applies = parse(f_text, "u"), [], []
    apply = solver.apply_A

    def counting_f(us):
        f_calls.append(us)
        return f(us)

    def counting_apply(*args):
        applies.append(args)
        return apply(*args)

    monkeypatch.setattr(solver, "apply_A", counting_apply)
    report = picard_solve(counting_f, ctx_t2, SolveConfig(n=400, u0=u0, max_iter=max_iter))
    assert (report.status, report.iterations) == (status, iterations)
    assert len(f_calls) == len(applies) == iterations + 1


@pytest.mark.parametrize("n", [800, 12800])
@pytest.mark.parametrize("k", [126, 130, 150, 200])
def test_picard_near_mu1_takes_few_applies(ctx_t2, monkeypatch, n, k):
    # f = k u/(1+u) contracts at about k / mu1 (mu1 = 126.71): plain Picard took
    # 2390, 647, 124 and 52 applies; at k = 126, u = 0 is the only fixed point
    # and the mixed iterates reach it exactly
    apply, applies = solver.apply_A, []

    def counting_apply(*args):
        applies.append(args)
        return apply(*args)

    monkeypatch.setattr(solver, "apply_A", counting_apply)
    config = SolveConfig(n=n, max_iter=5000, u0=1.0)
    report = picard_solve(parse(f"{k}*u/(1+u)", "u"), ctx_t2, config)
    assert report.status == "converged" and len(applies) <= 15
    assert (report.solution.sup_norm() == 0.0) == (k == 126) == report.trivial


@pytest.mark.parametrize("failures", [{2}, {2, 3}], ids=["mixed", "mixed-and-plain"])
def test_picard_falls_back_to_the_plain_image(ctx_t2, monkeypatch, failures):
    # where f fails or A overflows at a mixed iterate (the third apply), the
    # next iterate is the plain image A f(x) and the history is cleared: the
    # step after mixes only the two images since; where the plain image fails
    # too, Picard's own step has failed and the run has diverged
    apply, calls = solver.apply_A, []

    def failing_apply(u, f, op):
        fvals, au = (None, None) if len(calls) in failures else apply(u, f, op)
        calls.append((u, au))
        return fvals, au

    monkeypatch.setattr(solver, "apply_A", failing_apply)
    report = picard_solve(F_AFFINE, ctx_t2, SolveConfig(n=200, u0=1.0))
    (x1, g1), (x3, g3) = calls[1], calls[3]
    assert np.array_equal(x3, g1)
    if failures == {2, 3}:
        assert report.status == "diverged" and report.iterations == 2
        assert np.array_equal(report.solution.values, g1)
        return
    r1, r3 = g1 - x1, g3 - x3
    dr = r3 - r1
    gamma = np.dot(dr, r3) / np.dot(dr, dr)
    assert np.allclose(calls[4][0], np.maximum(g3 - gamma * (g3 - g1), 0.0), rtol=1e-12, atol=0.0)
    assert report.status == "converged"
    unperturbed = picard_solve(F_AFFINE, ctx_t2, SolveConfig(n=200, u0=1.0))
    assert np.max(np.abs(report.solution.values - unperturbed.solution.values)) < 1e-10


def test_picard_singular_gram_takes_the_plain_step(ctx_t2, monkeypatch):
    # a singular Gram matrix at the first mixed step (a 1 x 1 system): the
    # mixer clears its history, the next iterate is the plain image, and the
    # step after solves with the one difference held since
    f, config = parse("130*u/(1+u)", "u"), SolveConfig(n=200, u0=1.0)
    unperturbed = picard_solve(f, ctx_t2, config)
    solve, sizes = np.linalg.solve, []

    def singular_once(gram, rhs):
        sizes.append(len(gram))
        if len(sizes) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(gram, rhs)

    apply, calls = solver.apply_A, []

    def recording_apply(u, f, op):
        fvals, au = apply(u, f, op)
        calls.append((u, au))
        return fvals, au

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    monkeypatch.setattr(solver, "apply_A", recording_apply)
    report = picard_solve(f, ctx_t2, config)
    assert np.array_equal(calls[2][0], calls[1][1]) and sizes[:4] == [1, 1, 2, 3]
    assert (unperturbed.iterations, report.iterations, report.status) == (13, 17, "converged")
    assert np.max(np.abs(report.solution.values - unperturbed.solution.values)) < 1e-8


@pytest.mark.parametrize(
    "f_text, u0, status",
    [("1+u", 1.0, "converged"), ("exp(u)", 709.7825, "diverged"),
     ("0.001*exp(u)", 800.0, "diverged")],
    ids=["converged", "A-overflows", "f-fails"],
)
def test_picard_report_carries_its_diagnosis(ctx_t2, f_text, u0, status):
    # the start bound, A u and the ODE rows, as the separate calls compute them from f(u)
    f, config = parse(f_text, "u"), SolveConfig(n=40, u0=u0)
    report = picard_solve(f, ctx_t2, config)
    assert report.status == status
    assert report.bound_at_start == norm_bound_check(config.initial_guess(), f, ctx_t2)
    u = report.solution
    if f_text == "0.001*exp(u)":
        assert report.au is None and report.ode_defects is None
        assert residual_ode(u, f, ctx_t2) == report.residual_ode == OdeResidual(math.inf, math.inf)
        return
    fvals = f(u.values)
    au = operator_matrix(ctx_t2, 40)(fvals)
    assert (report.au is None) == (not np.isfinite(au).all())
    if report.au is not None:
        assert np.array_equal(report.au, au)
    assert np.array_equal(report.ode_defects, solver._ode_defects(u, fvals, ctx_t2))
    assert report.residual_ode == residual_ode(u, f, ctx_t2)


def _oracle_result(solution, error_estimate=0.0, amplification=1.0):
    """A converged CollocationResult with the given fields."""
    return solver.CollocationResult(
        solution=solution, status="converged", iterations=0, residual=0.0, residual_trace=[0.0],
        halvings=[], error_estimate=error_estimate, amplification=amplification,
    )


def _agreement(report, oracle):
    return float(np.max(np.abs(oracle.solution.values - report.au)))


def test_agreement_bound_covers_picard_stopping_error(ctx_t2):
    # tol = 1e-3 leaves Picard ~1e-4 from its fixed point; the stopping part
    # 2 r / (1 - theta) of the agreement bound, all of it at agreement 0,
    # covers the distance
    f = parse("50*u/(1+u) + 1", "u")
    config = SolveConfig(n=400, tol=1e-3)
    loose = picard_solve(f, ctx_t2, config)
    exact = picard_solve(f, ctx_t2, SolveConfig(n=400, tol=1e-14)).solution
    oracle = _oracle_result(exact)
    error = float(np.max(np.abs(loose.solution.values - exact.values)))
    assert 1e-5 < error <= agreement_bound(loose, oracle, f, ctx_t2, 0.0)


def test_agreement_bound_counts_the_oracle_defect(ctx_t2):
    # both at u = 0 but for the oracle's last Newton step d_o: the bound is 2 d_o
    zero = GridFunction(20, np.zeros(21))
    f = parse("u^2", "u")
    picard = picard_solve(f, ctx_t2, SolveConfig(n=20))
    assert picard.residual_integral == 0.0 and picard.solution.sup_norm() == 0.0
    oracle = _oracle_result(zero, error_estimate=1e-12)
    assert agreement_bound(picard, oracle, f, ctx_t2, 0.0) == 2.0 * 1e-12


@pytest.mark.parametrize("k, n, u0", [(120, 40, 10.0), (126, 200, 10.0)])
def test_oracle_estimates_its_error_near_mu1(ctx_t2, k, n, u0):
    # k < mu1 makes u = 0 the only nonnegative solution, but I - A f' is nearly
    # singular there (the oracle's amplification K is 46 and 444): the last
    # Newton step bounds the oracle's distance to it, and the agreement bound
    # covers that distance where Picard reaches u = 0 exactly
    f, config = parse(f"{k}*u/(1+u)", "u"), SolveConfig(n=n, u0=u0)
    oracle = collocation_oracle(f, ctx_t2, config)
    error = oracle.solution.sup_norm()
    assert oracle.status == "converged" and 0.0 < error <= oracle.error_estimate
    assert oracle.amplification > 40.0
    picard = picard_solve(f, ctx_t2, config)
    assert picard.solution.sup_norm() == 0.0
    assert error <= agreement_bound(picard, oracle, f, ctx_t2, _agreement(picard, oracle))


def test_agreement_bound_measures_picards_discretization_error(ctx_t2):
    # f' up to 130: at n = 20 Picard's Nystrom solution is 2.8e-5 from the
    # oracle's, far beyond the stopping part; Picard's map at the oracle's
    # solution measures that discretization error, and the bound covers it.
    # At n = 800 a Picard solution 2% off still fails the gate.
    f = parse("130*u/(1+u)", "u")
    for n, scale in ((20, 1.0), (800, 1.0), (800, 1.02)):
        config = SolveConfig(n=n, max_iter=5000, u0=1.0)
        picard = picard_solve(f, ctx_t2, config)
        oracle = collocation_oracle(f, ctx_t2, config)
        assert (picard.status, oracle.status) == ("converged", "converged")
        agreement = float(np.max(np.abs(oracle.solution.values - scale * picard.au)))
        bound = agreement_bound(picard, oracle, f, ctx_t2, agreement)
        if scale == 1.0:
            assert agreement <= bound <= 10.0 * agreement
        else:
            assert 1e-3 < agreement and bound < 1e-7
        if n == 20:
            assert agreement > 2.8e-5 > 1e4 * agreement_bound(picard, oracle, f, ctx_t2, 0.0)


def test_agreement_bound_is_small_at_a_different_fixed_point():
    # Picard falls to u = 0 from u0 = 70 while the oracle finds the positive
    # solution (sup 333.65): Picard's map keeps the oracle's solution, so the
    # bound (1.5e-6) stays far below the distance
    f, ctx = parse("u^2", "u"), make_context(parse("0.9*t^2", "t"))
    config = SolveConfig(n=400, u0=70.0)
    picard = picard_solve(f, ctx, config)
    oracle = collocation_oracle(f, ctx, config)
    assert picard.status == oracle.status == "converged" and picard.trivial
    agreement = _agreement(picard, oracle)
    assert agreement > 300.0 and agreement_bound(picard, oracle, f, ctx, agreement) < 1e-4


def test_agreement_bound_is_none_where_f_fails_at_the_oracle_solution(ctx_t2):
    # f fails at the oracle's solution, u = 800, so Picard's map cannot measure its error there
    picard = picard_solve(F_ONE, ctx_t2, SolveConfig(n=20))
    oracle = _oracle_result(GridFunction.constant(800.0, 20))
    assert agreement_bound(picard, oracle, parse("0.001*exp(u)", "u"), ctx_t2, 1.0) is None


@pytest.mark.parametrize(
    "weight, message",
    [
        ("0.1 + 0.000000000000000000000000000001/(t-0.0003125)^2",
         "a cannot be evaluated at t = 0.0003125:"),
        ("0.5 - 1e-40/((t-0.0003125)^2 + 1e-80)", "a(0.0003125) = -"),
    ],
    ids=["fails", "negative"],
)
def test_picard_rejects_weight_breaking_h2_at_grid_node(weight, message):
    # a is fine on every sample of make_context, but not at node 1 of the grid
    ctx = make_context(parse(weight, "t"))
    with pytest.raises(HypothesisViolation) as exc:
        picard_solve(F_ONE, ctx, SolveConfig(n=3200))
    assert exc.value.which == "H2" and message in str(exc.value)


def test_picard_refuses_weight_negative_at_grid_node_before_any_apply(monkeypatch):
    # a = (t - 0.0005)^2 - 1e-8 dips below 0 between make_context's samples,
    # and at the grid node t = 0.0005 of n = 2000
    apply, applies = solver.apply_A, []

    def counting_apply(*args):
        applies.append(args)
        return apply(*args)

    monkeypatch.setattr(solver, "apply_A", counting_apply)
    ctx = make_context(parse("(t-0.0005)^2 - 0.00000001", "t"))
    with pytest.raises(HypothesisViolation) as exc:
        picard_solve(F_AFFINE, ctx, SolveConfig(n=2000))
    assert exc.value.which == "H2" and "a(0.0005) = -1e-08" in str(exc.value)
    assert len(applies) == 0


def test_picard_respects_max_iter(ctx_t2):
    report = picard_solve(F_AFFINE, ctx_t2, SolveConfig(n=100, tol=1e-16, max_iter=2))
    assert report.status == "max_iter"
    assert report.iterations == 2


def test_picard_reports_divergence(ctx_t2):
    # the second image, sup 1.7e175, is finite; f overflows on it
    config = SolveConfig(n=100, u0=10.0, max_iter=100)
    report = picard_solve(parse("exp(u)+100", "u"), ctx_t2, config)
    assert report.status == "diverged"
    assert np.all(np.isfinite(report.solution.values))


def test_diverged_run_is_not_trivial(ctx_t2):
    # f(0) is undefined, so Picard diverges at its first step and returns
    # u0 = 0, which is below the triviality threshold but no fixed point
    report = picard_solve(parse("1/u", "u"), ctx_t2, SolveConfig(n=40))
    assert report.status == "diverged" and report.solution.sup_norm() == 0.0
    assert not report.trivial


@pytest.mark.parametrize("u0, trivial", [(5.0, True), (300.0, False)])
def test_trivial_flag_counts_stopping_error_where_the_run_contracts(ctx_t2, u0, trivial):
    # f = u^3, 2 plain Picard steps: from 5 the iterate (sup 0.032) contracts
    # toward 0 and lies within r / (1 - theta) of it; from 300 it grows
    # (r > last step), so the stopping error bounds nothing and does not count
    report = picard_solve(parse("u^3", "u"), ctx_t2, SolveConfig(n=200, max_iter=2, u0=u0))
    assert report.status == "max_iter" and report.solution.sup_norm() > 1e-8
    assert report.trivial == trivial


def test_report_invariants(ctx_t2):
    for f, u0 in ((F_ONE, 0.0), (F_AFFINE, 0.0), (F_SATURATING, 1.0)):
        report = picard_solve(f, ctx_t2, SolveConfig(n=400, u0=u0))
        assert report.residual_integral >= 0.0
        assert report.residual_ode.interior >= 0.0 and report.residual_ode.bc >= 0.0
        assert report.trivial == (report.solution.sup_norm() < 1e-8)
        _, au = apply_A(report.solution.values, f, operator_matrix(ctx_t2, 400))
        au_norm = GridFunction(400, au).sup_norm()
        assert au_norm <= report.norm_bound + 1e-10
        assert report.iterations == len(report.delta_trace)


def test_converged_report_is_consistent(ctx_t2):
    config = SolveConfig(n=400, tol=1e-10)
    report = picard_solve(F_AFFINE, ctx_t2, config)
    assert report.status == "converged"
    assert report.delta_trace[-1] < config.tol
    assert report.residual_integral < 10.0 * config.tol


def test_solve_config_validation():
    for n in (101, 8, 18):  # below 20 the collocation oracle has no grid
        with pytest.raises(ValueError):
            SolveConfig(n=n)
    for tol in (0.0, math.inf):
        with pytest.raises(ValueError):
            SolveConfig(tol=tol)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    for u0 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolveConfig(u0=u0)


def test_solve_config_grid_bound():
    assert SolveConfig(n=solver.MAX_GRID_N).n == 2**20
    with pytest.raises(ValueError, match="at most 1048576"):
        SolveConfig(n=solver.MAX_GRID_N + 2)


# --- residuals -------------------------------------------------------------


def test_residual_integral_of_exact_solution(ctx_t2):
    # the exact solution is a fixed point: its defect ||u - A u|| is tiny
    u = oracle_grid(2000)
    _, au = apply_A(u.values, F_ONE, operator_matrix(ctx_t2, 2000))
    assert float(np.max(np.abs(u.values - au))) < 1e-10


def test_residual_ode_of_oracle_polynomial(ctx_t2):
    u = oracle_grid(2000)
    res = residual_ode(u, F_ONE, ctx_t2)
    assert res.interior < interior_tolerance(2000, u.sup_norm())
    assert res.bc < 1e-8


def test_residual_ode_trivial(ctx_t2):
    res = residual_ode(GridFunction.constant(0.0, 400), F_BOUNDED, ctx_t2)
    assert res.interior == 0.0 and res.bc == 0.0


def test_residual_ode_rejects_negative_f(ctx_t2):
    ts = np.linspace(0.0, 1.0, 401)
    u = GridFunction(400, ts**4 / 24.0)
    with pytest.raises(HypothesisViolation):
        residual_ode(u, parse("-1", "u"), ctx_t2)


def test_residual_ode_applies_no_operator(ctx_t2, monkeypatch):
    # residual_ode reads f(u) alone: the grid operator is neither applied nor needed
    applies, cached = [], solver._discretization

    def counting_discretization(ctx, n):
        grid = cached(ctx, n)

        def op(v):
            applies.append(len(v))
            return grid.op(v)
        return grid._replace(op=op)

    monkeypatch.setattr(solver, "_discretization", counting_discretization)
    u = oracle_grid(400)
    assert residual_ode(u, F_ONE, ctx_t2).bc < 1e-8
    assert applies == []


def test_residual_ode_needs_fine_grid(ctx_t2):
    with pytest.raises(ValueError):
        residual_ode(GridFunction.constant(0.0, 8), F_ONE, ctx_t2)


def _scaled_then_unscaled_rows(u, fvals, aw):
    """The defects as a finite-difference Newton solve formed them: its system's
    h-scaled rows, all O(||u||), then absolute values divided by powers of h."""
    v, h, n = u.values, u.h, u.n
    d1 = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0
    d2 = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
    r = np.empty(n + 1)
    r[0] = np.dot(d1, v[:4])  # h * u'(0)
    r[1] = np.dot(d2, v[:5])  # h^2 * u''(0)
    r[2 : n - 1] = (
        v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2] - 4.0 * v[3:-1] + v[4:] + h**4 * fvals[2:-2]
    )
    r[n - 1] = -np.dot(d1, v[-1:-5:-1])  # h * u'(1)
    r[n] = v[0] - np.dot(aw, v)
    rows = np.abs(r)
    rows[[0, -2]] /= h
    rows[1] /= h**2
    rows[2:-2] /= h**4
    return rows


@pytest.mark.parametrize("n", [40, 800, 3200])
def test_ode_defects_bit_identical_to_scaled_rows(ctx_t2, n):
    # the CSV's fourth_diff_residual column and the residual_ode keys read these rows
    f = parse("0.5*u/(1+u) + 0.3", "u")
    fixed = picard_solve(f, ctx_t2, SolveConfig(n=n, u0=1.0)).solution
    wobble = 1.0 + 1e-3 * np.sin(37.0 * fixed.ts)
    aw = solver._discretization(ctx_t2, n).aw
    for u in (fixed, GridFunction(n, fixed.values * wobble)):
        rows = solver._ode_defects(u, f(u.values), ctx_t2)
        assert rows.tobytes() == _scaled_then_unscaled_rows(u, f(u.values), aw).tobytes()
    # where f fails at u there are no rows
    u = GridFunction.constant(800.0, n)
    fvals, _ = apply_A(u.values, parse("0.001*exp(u)", "u"), operator_matrix(ctx_t2, n))
    assert fvals is None and solver._ode_defects(u, fvals, ctx_t2) is None


# --- collocation oracle ----------------------------------------------------


def test_collocation_matches_polynomial_oracle(ctx_t2):
    # f = 1, a = t^2: the exact solution is a quartic, so only rounding is left
    result = collocation_oracle(F_ONE, ctx_t2, SolveConfig(n=500))
    assert result.status == "converged"
    exact = np.polynomial.polynomial.polyval(result.solution.ts, ORACLE_Y1)
    assert float(np.max(np.abs(result.solution.values - exact))) < 1e-12


def test_collocation_zero_f(ctx_t2):
    result = collocation_oracle(F_ZERO, ctx_t2, SolveConfig(n=100))
    assert result.status == "converged"
    assert result.solution.sup_norm() == 0.0


def test_collocation_residuals(ctx_t2):
    config = SolveConfig(n=500)
    result = collocation_oracle(F_AFFINE, ctx_t2, config)
    res = residual_ode(result.solution, F_AFFINE, ctx_t2)
    assert res.interior < interior_tolerance(500, result.solution.sup_norm())
    assert res.bc < 1e-8


def test_collocation_needs_minimum_grid(ctx_t2):
    with pytest.raises(ValueError):
        collocation_oracle(F_ONE, ctx_t2, SolveConfig(n=10))


def test_collocation_rational_f_agrees_with_picard(ctx_t2):
    f = parse("2/(1+u)", "u")
    config = SolveConfig(n=500)
    report = picard_solve(f, ctx_t2, config)
    result = collocation_oracle(f, ctx_t2, config)
    assert report.status == "converged" and result.status == "converged"
    gap = float(np.max(np.abs(report.solution.values - result.solution.values)))
    assert gap < 1e-6


def test_collocation_large_grid_agrees_with_picard(ctx_t2):
    # the oracle's work does not grow with n but for its interpolant on the grid
    f = F_SATURATING
    config = SolveConfig(n=51200, u0=1.0)
    result = collocation_oracle(f, ctx_t2, config)
    report = picard_solve(f, ctx_t2, config)
    assert result.status == "converged" and report.status == "converged"
    gap = float(np.max(np.abs(report.solution.values - result.solution.values)))
    assert gap < 1e-9


# Picard at n = 3200, tol = 1e-13, is within rounding of the continuous solution
TABLE = {
    "hump": ("3.1*u*exp(-1.2*u) + 0.4", "0.45*t", 0.0),
    "steep-saturating": ("130*u/(1+u)", "t^2", 1.0),
    "square-from-300": ("u^2", "0.9*t^2", 300.0),
    "exponential": ("20*exp(u)", "t^2", 0.0),
}


@pytest.mark.parametrize("f_text, a_text, u0", TABLE.values(), ids=TABLE.keys())
def test_collocation_agrees_with_fine_picard(f_text, a_text, u0):
    # measured: 1.0e-13, 2.4e-10, 7.5e-8 (sup 333.65) and 2.3e-11
    f, ctx = parse(f_text, "u"), make_context(parse(a_text, "t"))
    config = SolveConfig(n=3200, tol=1e-13, max_iter=5000, u0=u0)
    report = picard_solve(f, ctx, config)
    result = collocation_oracle(f, ctx, config)
    assert report.status == result.status == "converged" and not report.trivial
    gap = float(np.max(np.abs(report.au - result.solution.values)))
    assert gap < 1e-9 * max(1.0, report.solution.sup_norm())


def test_collocation_keeps_newton_trace(ctx_t2):
    result = collocation_oracle(F_AFFINE, ctx_t2, SolveConfig(n=200, u0=1.0))
    assert result.status == "converged"
    assert len(result.residual_trace) == result.iterations + 1
    assert len(result.halvings) == result.iterations
    assert result.residual_trace[-1] == result.residual
    assert all(b < a for a, b in zip(result.residual_trace, result.residual_trace[1:]))
    assert "residual_trace" not in repr(result) and "halvings" not in repr(result)


def test_f_derivative_relative_step():
    # an absolute step of 1e-6 is below half an ulp of 1e12 and of 1e300
    xs = np.array([0.0, 0.5, 1e12, 1e300])
    assert np.allclose(_f_derivative(F_AFFINE, xs), 1.0, rtol=1e-6)


def test_collocation_from_large_initial_guess(ctx_t2):
    # affine f: the first step solves the system up to its rounding at 1e12,
    # three more reach the stop; f' is exact there, as the step is relative
    result = collocation_oracle(F_AFFINE, ctx_t2, SolveConfig(n=200, u0=1e12))
    assert result.status == "converged"
    assert result.iterations <= 4


@pytest.mark.parametrize(
    "text, u0, max_iter, status",
    [("exp(u)", 709.7825, 500, "diverged"), ("0.001*exp(u)", 800.0, 500, "diverged"),
     ("u^4+1000", 0.0, 500, "stagnated"), ("exp(u)", 300.0, 500, "max_iter"),
     ("1+u", 1.0, 500, "converged")],
    ids=["f-prime-probe-fails", "f-fails-at-u0", "stagnated", "max_iter", "converged"],
)
def test_collocation_statuses(ctx_t2, text, u0, max_iter, status):
    # u^4 + 1000 has no nonnegative fixed point: no step length lowers the
    # residual at 7.2e-4; from u0 = 300, exp(u) takes 60 steps down from 1e130
    config = SolveConfig(n=400, u0=u0, max_iter=max_iter)
    result = collocation_oracle(parse(text, "u"), ctx_t2, config)
    assert result.status == status
    assert len(result.residual_trace) == result.iterations + 1 == len(result.halvings) + 1
    assert result.residual_trace[-1] == result.residual
    if status == "diverged":  # no step: f fails at u0 (residual inf), or its f' probe there
        assert result.iterations == 0
        assert math.isinf(result.residual) == (text == "0.001*exp(u)")
        assert np.allclose(result.solution.values, u0, rtol=1e-14, atol=0.0)
    if status == "stagnated":
        assert result.halvings[-1] == 30
    if status == "max_iter":
        assert result.iterations == 60
    assert math.isfinite(result.amplification) == (status == "converged")


# --- norm bound ------------------------------------------------------------


def test_norm_bound_constant_f(ctx_t2):
    check = norm_bound_check(GridFunction.constant(0.0, 2000), F_ONE, ctx_t2)
    assert check.bound == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert check.au_norm == pytest.approx(19.0 / 1008.0, abs=1e-8)
    assert check.holds


def test_norm_bound_zero_f(ctx_t2):
    check = norm_bound_check(GridFunction.constant(2.0, 400), F_ZERO, ctx_t2)
    assert check.bound == 0.0 and check.au_norm == 0.0 and check.holds


def test_norm_bound_random_quadratic(ctx_t2):
    rng = np.random.default_rng(17)
    f = parse("u^2", "u")
    for _ in range(20):
        u = GridFunction(400, rng.uniform(0.0, 1.0, 401))
        assert norm_bound_check(u, f, ctx_t2).holds


def test_norm_bound_evaluates_f_once(ctx_t2):
    calls = []

    def counting_f(us):
        calls.append(us)
        return us + 1.0

    assert norm_bound_check(GridFunction.constant(1.0, 40), counting_f, ctx_t2).holds
    assert len(calls) == 1


def test_norm_bound_fails_when_f_overflows(ctx_t2):
    u = GridFunction.constant(800.0, 40)
    check = norm_bound_check(u, parse("0.001*exp(u)", "u"), ctx_t2)
    assert check == BoundCheck(bound=math.inf, au_norm=math.inf, holds=False)


def test_norm_bound_fails_when_only_A_overflows(ctx_t2):
    # f(u) ~ 1.8e308 is finite, and so is its g-weighted integral
    check = norm_bound_check(GridFunction.constant(709.7825, 40), parse("exp(u)", "u"), ctx_t2)
    assert math.isfinite(check.bound)
    assert check.au_norm == math.inf and not check.holds


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_cone_preservation_random_inputs(theta):
    rng = np.random.default_rng(29)
    ctx = make_context(parse("t^2", "t"), theta=theta)
    op = operator_matrix(ctx, 400)
    for f in (F_ONE, F_AFFINE, parse("u^2", "u"), F_SATURATING):
        for _ in range(5):
            u = GridFunction(400, rng.uniform(0.0, 1.0, 401))
            au = GridFunction(400, apply_A(u.values, f, op)[1])
            check = cone_ratio(au, ctx)
            assert check.min_inner >= check.threshold * check.norm - 1e-10


def test_clenshaw_is_chebval_bit_for_bit():
    # the oracle's interpolant onto the grid, with x = 1 - 2t and 2x cached per n
    rng = np.random.default_rng(5)
    for n in (20, 800, 1601):
        x = 1.0 - 2.0 * np.linspace(0.0, 1.0, n + 1)
        for scale in (1e-310, 1.0, 1e200):  # subnormal, plain and large coefficients
            c = rng.normal(size=solver.ORACLE_N + 1) * scale
            expected = np.polynomial.chebyshev.chebval(x, c)
            assert solver._clenshaw(c, x, 2.0 * x).tobytes() == expected.tobytes()
