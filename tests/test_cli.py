import dataclasses
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from beambvp import cli, hypotheses, linear, solver
from beambvp.exprlang import ExpressionFn, parse
from beambvp.grid import GridFunction

PROBE = """\
# cross-oracle probe
f = 1+u
a = t^2
grid_n = 200
"""


def write_problem(tmp_path, text, name="case.problem"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


def assert_refused(capsys, which, message, out_path):
    """A hypothesis failure ends in one error line, with no report and no file."""
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: hypothesis {which} violated: {message}"]
    assert captured.out == "" and not Path(out_path).exists()


# --- problem files ----------------------------------------------------------


def test_problem_defaults():
    problem = cli.parse_problem("f = 1\na = t^2\n")
    assert problem.theta == 0.25
    assert problem.grid_n == 800
    assert problem.quad_panels == 200
    assert problem.tol == 1e-10
    assert problem.max_iter == 500
    assert problem.u0 == 0.0


def test_problem_comments_and_values():
    problem = cli.parse_problem(
        "f = u*(1-exp(-u))  # nonlinearity\na = t^2\ntheta = 0.1\nu0 = constant 1\n"
    )
    assert problem.theta == 0.1
    assert problem.u0 == 1.0
    assert cli.parse_problem("f = 1\na = t^2\nu0 = zero\n").u0 == 0.0


@pytest.mark.parametrize(
    "text",
    [
        "a = t^2\n",  # missing f
        "f = 1\na = t^2\nf = 2\n",  # duplicate
        "f = 1\na = t^2\nwidth = 3\n",  # unknown key
        "f = 1\na = t^2\ntheta = 0.7\n",  # theta out of range
        "f = 1\na = t^2\ngrid_n = 201\n",  # odd grid
        "f = 1\na = t^2\ntol = inf\n",  # every first step would pass as converged
        "f = 1\na = t^2\nquad_panels = 0\n",
        "f = 1\na = t^2\nu0 = ramp\n",  # bad descriptor
        "f = 1\na = t^2\nu0 = constant abc\n",  # bad constant
        "f = 1\na = t^2\nu0 = constant nan\n",  # non-finite start
        "f = 1\na = t^2\nu0 = constant 1e400\n",  # overflows to inf
        "f = u +\na = t^2\n",  # expression syntax
        "just text\n",
        pytest.param("f = " + "(" * 10**4 + "u" + ")" * 10**4 + "\na = t^2\n", id="nested-10k"),
    ],
)
def test_problem_rejects_bad_input(text):
    with pytest.raises((cli.ProblemError,)):
        cli.parse_problem(text)


def test_bundled_problems_load():
    for name in ("example_a", "example_b"):
        problem = cli.bundled_problem(name)
        assert problem.a.source == "t^2"
        assert problem.u0 == 1.0


# --- verify-lemmas ----------------------------------------------------------


def test_verify_lemmas_default_passes(capsys):
    assert cli.main(["verify-lemmas"]) == 0
    out = capsys.readouterr().out
    assert "verify-lemmas: PASS" in out
    assert out.count(" proven") == 8  # nonnegativity, two bounds per theta, boundary identity


def test_verify_lemmas_near_boundary_theta(capsys):
    assert cli.main(["verify-lemmas", "--theta", "0.49"]) == 0
    assert capsys.readouterr().out.count(" proven") == 4


def test_verify_lemmas_corrupted_kernel_fails(monkeypatch, capsys):
    branch = cli.kernel.green_s_le_t  # the formula the proof runs
    monkeypatch.setattr(cli.kernel, "green_s_le_t", lambda t, s: -branch(t, s))
    assert cli.main(["verify-lemmas"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "refuted at (t=0.10000000000000001, s=0.10000000000000001)" in out


def test_verify_lemmas_report_file(tmp_path, capsys):
    report = tmp_path / "lemmas.csv"
    assert cli.main(["verify-lemmas", "--report", str(report)]) == 0
    header, rows = read_csv(report)
    assert header == ["check", "theta", "worst", "limit", "ok", "t", "s"]
    assert len(rows) >= 8
    nonneg = rows[0]
    assert nonneg[0] == "nonnegativity"
    assert nonneg[1] == "n/a"  # None
    assert nonneg[4] == "true"  # bool
    assert rows[1][1] == "0.10000000000000001"  # theta 0.1 to 17 significant digits
    assert rows[1][2:] == ["0", "0", "true", "n/a", "n/a"]  # proven: no refuting vertex
    identity = next(row for row in rows if row[0] == "boundary-identity")
    assert identity[2] == "0"  # G(1, s) - g(s) is the zero polynomial


# --- solve ------------------------------------------------------------------


def test_solve_unit_load(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1\na = t^2\ngrid_n = 200\n")
    out_csv = tmp_path / "u.csv"
    code = cli.main(["solve", path, "--out", str(out_csv)])
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == ["t", "u", "Au", "fourth_diff_residual"]
    assert len(rows) == 201
    u0 = float(rows[0][1])
    u1 = float(rows[-1][1])
    assert u0 == pytest.approx(5.0 / 1008.0, abs=1e-8)
    assert u1 == pytest.approx(19.0 / 1008.0, abs=1e-8)


def test_solve_saturating_from_one_is_trivial(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u*(1-exp(-u))\na = t^2\ngrid_n = 200\n")
    code = cli.main(["solve", path, "--u0", "constant 1", "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "trivial_fixed_point = true" in out


@pytest.mark.parametrize("k, trivial", [(126, "true"), (130, "false")])
def test_solve_trivial_flag_counts_picard_stopping_error(tmp_path, capsys, k, trivial):
    # k = 126 < mu1 = 126.71 makes u = 0 the only nonnegative fixed point; Picard
    # stops at sup 1.8e-8, within its a-posteriori error r / (1 - theta) of it.
    # k = 130 has a positive solution (sup 0.0564), where the oracle agrees to
    # 1.6e-9, within the stopping rules' error.
    text = f"f = {k}*u/(1+u)\na = t^2\ngrid_n = 800\nmax_iter = 5000\nu0 = constant 1\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert _summary_value(out, "status") == "converged"
    assert _summary_value(out, "trivial_fixed_point") == trivial
    assert code == 0


def test_solve_trivial_flag_where_picard_stopped_loosely(tmp_path, capsys):
    # k = 126 < mu1 at tol = 1e-6: plain Picard stopped after 757 iterations at
    # sup 1.7e-4 and printed false; the mixed iterates reach u = 0 exactly
    text = "f = 126*u/(1+u)\na = t^2\ngrid_n = 400\ntol = 1e-6\nmax_iter = 5000\nu0 = constant 1\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert _summary_value(out, "trivial_fixed_point") == "true"
    assert code == 0


@pytest.mark.parametrize("k, n", [(120, 40), (126, 200)])
def test_solve_near_mu1_trivial_agrees(tmp_path, capsys, k, n):
    # the mixed iterates reach u = 0 exactly (residual 0); the oracle stops
    # 1.9e-17 and 2.3e-15 from it, and the gate counts its last Newton step
    text = f"f = {k}*u/(1+u)\na = t^2\ngrid_n = {n}\nu0 = constant 10\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert _summary_value(out, "solution_sup_norm") == "0"
    assert float(_summary_value(out, "oracle_agreement_sup")) > 0.0
    assert code == 0


STEEP_SATURATING = "f = 130*u/(1+u)\na = t^2\nmax_iter = 5000\nu0 = constant 1\n"


@pytest.mark.parametrize("n", [20, 40])
def test_solve_steep_saturating_agrees_on_coarse_grids(tmp_path, capsys, n):
    # Picard's Nystrom solution is 2.8e-5 (n = 20) and 1.8e-6 (n = 40) from the
    # oracle's, far beyond the stopping rules' error: its discretization error
    path = write_problem(tmp_path, STEEP_SATURATING + f"grid_n = {n}\n")
    code = cli.main(["solve", path, "--out", str(tmp_path / "u.csv")])
    captured = capsys.readouterr()
    assert _summary_value(captured.out, "collocation_status") == "converged"
    assert float(_summary_value(captured.out, "oracle_agreement_sup")) > 1e-6
    assert code == 0 and captured.err == ""


def test_solve_exits_4_when_picard_is_two_percent_off(tmp_path, capsys, monkeypatch):
    # the gate measures Picard's discretization error at the oracle's solution,
    # so one 2% off (1.1e-3, 4e8 times that error at n = 800) fails it; u and
    # A u move together, so the Nystrom values A f(u) are 2% off too
    picard_solve = solver.picard_solve

    def two_percent_off(f, ctx, config):
        report = picard_solve(f, ctx, config)
        return dataclasses.replace(
            report, solution=GridFunction(config.n, 1.02 * report.solution.values),
            au=1.02 * report.au,
        )

    monkeypatch.setattr(solver, "picard_solve", two_percent_off)
    path = write_problem(tmp_path, STEEP_SATURATING + "grid_n = 800\n")
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "found different fixed points" in err[0]


def test_solve_exits_4_where_picards_error_cannot_be_measured(tmp_path, capsys, monkeypatch):
    # the agreement 2.8e-5 exceeds the stopping part, so the gate applies
    # Picard's grid operator at the oracle's solution; where that overflows,
    # it exits 4.  Picard's applies all come before the oracle's solve.
    build, oracle, oracle_done = linear.operator_matrix, solver.collocation_oracle, []

    def overflows_after_the_oracle(ctx, n):
        op = build(ctx, n)
        return lambda y: np.full(n + 1, np.inf) if oracle_done else op(y)

    def recording_oracle(f, ctx, config):
        oracle_done.append(True)
        return oracle(f, ctx, config)

    monkeypatch.setattr(solver, "operator_matrix", overflows_after_the_oracle)
    monkeypatch.setattr(solver, "collocation_oracle", recording_oracle)
    path = write_problem(tmp_path, STEEP_SATURATING + "grid_n = 20\n")
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 4
    captured = capsys.readouterr()
    assert _summary_value(captured.out, "collocation_status") == "converged"
    err = captured.err.splitlines()
    assert len(err) == 1 and "Picard's error is unmeasured" in err[0]


def test_solve_affine_cross_checks(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE)
    code = cli.main(["solve", path, "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "trivial_fixed_point = false" in out
    agreement = float(out.split("oracle_agreement_sup = ")[1].splitlines()[0])
    assert agreement < 1e-6


def test_solve_reruns_bit_identical(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["solve", path, "--out", str(first)]) == 0
    assert cli.main(["solve", path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_solve_plot_data(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE)
    plot = tmp_path / "plot.csv"
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv"), "--plot-data", str(plot)]) == 0
    header, rows = read_csv(plot)
    assert header == ["t", "u"]
    assert len(rows) == 201


# f >= 0 fails first at u = 0, only on (49, 51) inside the H1 probe's scan, or
# only past its 1e6, at the last point of the finf schedule
NEGATIVE_F = {
    "u-1": "f(0.0) = -1.0 < 0",
    "(u-50)^2 - 1": "f(49.15516484961497) = -0.28625356867390306 < 0",
    "1e7 - u": "f(100000000.0) = -90000000.0 < 0",
}


def test_solve_hypothesis_violation_exit(tmp_path, capsys, monkeypatch):
    # the default output, case.solution.csv in the working directory, stays unwritten
    monkeypatch.chdir(tmp_path)
    cases = [("1", "2*t", "H2", H2_FAILURES["2*t"])]
    cases += [(f, "t^2", "H1", message) for f, message in NEGATIVE_F.items()]
    for f, a, which, message in cases:
        path = write_problem(tmp_path, f"f = {f}\na = {a}\n")
        assert cli.main(["solve", path]) == 2
        assert_refused(capsys, which, message, tmp_path / "case.solution.csv")


def test_solve_parse_error_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u +\na = t^2\n")
    assert cli.main(["solve", path]) == 3
    assert "offset 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_wrong_variable_exit(tmp_path, capsys, command):
    # f is a function of u and a of t: the other variable is an unknown identifier
    for text, message in [
        ("f = u+t\na = t^2\n", "unknown identifier 't' at offset 2 (expected u)"),
        ("f = u\na = u\n", "unknown identifier 'u' at offset 0 (expected t)"),
    ]:
        path = write_problem(tmp_path, text)
        out = ["--out", str(tmp_path / "u.csv")] if command == "solve" else []
        assert cli.main([command, path, *out]) == 3
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not (tmp_path / "u.csv").exists()


def test_solve_missing_file_exit(capsys):
    assert cli.main(["solve", "no-such-file.problem"]) == 3


def test_solve_nonfinite_u0_override_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1\na = t^2\ngrid_n = 200\n")
    assert cli.main(["solve", path, "--u0", "constant nan", "--out", str(tmp_path / "u.csv")]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_nonconvergence_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1+u\na = t^2\ngrid_n = 200\nmax_iter = 2\ntol = 1e-16\n")
    out_csv = tmp_path / "u.csv"
    assert cli.main(["solve", path, "--out", str(out_csv)]) == 4
    # report still written
    _, rows = read_csv(out_csv)
    assert len(rows) == 201


def _summary_value(out, key):
    return out.split(f"\n{key} = ")[1].splitlines()[0]


def test_solve_zero_guess_is_not_a_false_oracle_pass(tmp_path, capsys):
    # from u0 = 0 the oracle must move: u = 0 must not pass as its solution
    text = "f = 0.5*u/(1+u) + 0.3\na = 0.9*t^2\ngrid_n = 12800\nu0 = constant 0\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    norm = float(_summary_value(out, "solution_sup_norm"))
    agreement = float(_summary_value(out, "oracle_agreement_sup"))
    assert norm > 1e-3
    assert code == 4 or agreement < 1e-6 * norm


# --- the cross-check gate ---------------------------------------------------

DISAGREEING = "f = u^2\na = 0.9*t^2\nu0 = constant 70\n"
CONTRACTIVE = {
    "rational": "f = 0.5*u/(1+u) + 0.3\na = 0.9*t^2\n",
    "hump": "f = 3.1*u*exp(-1.2*u) + 0.4\na = 0.45*t\n",
    "saturating": "f = 0.2*u^2/(1+u^2) + 1\na = 0.5*t^3\n",
    # a steep f with a small solution, ||u|| = 0.024
    "steep": "f = 50*u/(1+u) + 1\na = 0.5*t\n",
}


# from the coarsest grid up: the oracle's points are the same at every n
@pytest.mark.parametrize("n", [20, 40, 422, 800, 1800, 12800, 20004])
def test_solve_exits_4_when_the_methods_find_different_fixed_points(tmp_path, capsys, n):
    # Picard falls to u = 0 from u0 = 70; the oracle finds the positive solution
    out_csv = tmp_path / "u.csv"
    path = write_problem(tmp_path, DISAGREEING + f"grid_n = {n}\n")
    assert cli.main(["solve", path, "--out", str(out_csv)]) == 4
    captured = capsys.readouterr()
    assert _summary_value(captured.out, "status") == "converged"
    assert _summary_value(captured.out, "collocation_status") == "converged"
    assert float(_summary_value(captured.out, "oracle_agreement_sup")) > 300.0
    err = captured.err.splitlines()
    assert len(err) == 1 and "found different fixed points" in err[0]
    assert len(read_csv(out_csv)[1]) == n + 1  # the report is still written


def test_solve_reaches_the_positive_solution_from_100(tmp_path, capsys):
    # from u0 = 100 the mixed iterates reach the positive solution that
    # the oracle finds, where plain Picard fell to u = 0
    path = write_problem(tmp_path, "f = u^2\na = 0.9*t^2\nu0 = constant 100\ngrid_n = 800\n")
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    assert _summary_value(out, "trivial_fixed_point") == "false"
    assert abs(float(_summary_value(out, "solution_sup_norm")) - 333.6548776) < 1e-6


# the 12800 cases keep their plain ids
@pytest.mark.parametrize("text, n", [
    pytest.param(text, n, id=key if n == 12800 else f"{key}-{n}")
    for n in (12800, 20004) for key, text in CONTRACTIVE.items()
])
def test_solve_contractive_problems_agree_at_large_n(tmp_path, capsys, text, n):
    path = write_problem(tmp_path, text + f"grid_n = {n}\n")
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    agreement = float(_summary_value(out, "oracle_agreement_sup"))
    # measured up to 3.1e-11 relative, on steep
    assert agreement < 1e-9 * float(_summary_value(out, "solution_sup_norm"))


def test_solve_example_a_agrees_at_102400(tmp_path, capsys):
    # the oracle's interpolant is compared on all 102401 nodes
    text = resources.files("beambvp.fixtures").joinpath("example_a.problem").read_text()
    assert "grid_n = 800\n" in text
    path = write_problem(tmp_path, text.replace("grid_n = 800\n", "grid_n = 102400\n"))
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    assert _summary_value(out, "collocation_status") == "converged"
    assert float(_summary_value(out, "oracle_agreement_sup")) < 1e-9


@pytest.mark.parametrize("text", CONTRACTIVE.values(), ids=CONTRACTIVE.keys())
def test_solve_loose_tol_agrees(tmp_path, capsys, text):
    # tol = 1e-4 stops Picard up to ~1e-5 from the fixed point, far above
    # the oracle's error; the bound counts Picard's own stopping error
    path = write_problem(tmp_path, text + "grid_n = 800\ntol = 1e-4\n")
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_solve_trivial_solution_at_the_oracle_floor_agrees(tmp_path, capsys):
    # Picard reaches u = 0 exactly (residual 0); the oracle stops at ||u_o|| =
    # 9e-24, which the bound counts through the oracle's last Newton step alone
    text = "f = 4.8823*u^2 + 0.3362*u^3\na = 1.0811*t^2\ngrid_n = 20\nu0 = constant 1\n"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    assert _summary_value(out, "residual_integral") == "0"
    assert float(_summary_value(out, "collocation_residual")) > 0.0
    assert float(_summary_value(out, "oracle_agreement_sup")) > 0.0


def test_solve_small_load_takes_a_step_past_the_oracle_floor(tmp_path, capsys):
    # the whole solution (2.2e-9) is only 22 tol: the oracle must not stop at
    # its initial guess; its first step is exact but for rounding
    text = "f = 1e-7 + 0*u\na = t\n"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    assert float(_summary_value(out, "solution_sup_norm")) > 2e-9
    assert int(_summary_value(out, "collocation_newton_iterations")) >= 1
    assert float(_summary_value(out, "oracle_agreement_sup")) < 1e-18


@pytest.mark.parametrize("load", ["1e-315", "1e-320"])
def test_solve_tiny_load_agrees(tmp_path, capsys, load):
    # the solution is subnormal: the stop's absolute part, tol, ends Newton
    # after one step (1e-315) or none, where the load underflows in the
    # equilibrated rows and the residual reads 0 (1e-320); there Picard's map
    # at the oracle's u = 0 measures the distance
    text = f"f = {load} + 0*u\na = t\n"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert 0.0 < float(_summary_value(captured.out, "oracle_agreement_sup")) < 1e-316


def test_solve_huge_initial_guess(tmp_path, capsys):
    text = "f = 1+u\na = t^2\ngrid_n = 200\nu0 = constant 1e300\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert _summary_value(out, "collocation_status") == "converged"
    assert code == 0


def test_solve_diverged_iterate_writes_nan_column(tmp_path, capsys):
    # from u0 = 2 the first Picard iterate is ~2.8e3, so f overflows on it
    text = "f = 50*exp(u^3)\na = t^2\ngrid_n = 100\nmax_iter = 50\nu0 = constant 2\n"
    out_csv = tmp_path / "u.csv"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(out_csv)]) == 4
    out = capsys.readouterr().out
    assert "status = diverged" in out
    assert _summary_value(out, "oracle_agreement_sup") == "n/a"
    _, rows = read_csv(out_csv)
    assert len(rows) == 101
    assert all(row[2] == "nan" for row in rows)


@pytest.mark.parametrize(
    "text",
    [
        "f = 0.001*exp(u)\na = t^2\ngrid_n = 40\nu0 = constant 800\n",
        "f = 0.001*u^3\na = t^2\ngrid_n = 40\nu0 = constant 1e120\n",
    ],
    ids=["exp", "cube"],
)
def test_solve_overflow_at_initial_guess_exit(tmp_path, capsys, text):
    # f overflows at u0 itself: no Picard step, no Newton step, no bound
    out_csv = tmp_path / "u.csv"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(out_csv)]) == 4
    out = capsys.readouterr().out
    assert _summary_value(out, "status") == "diverged"
    assert _summary_value(out, "collocation_status") == "diverged"
    assert _summary_value(out, "collocation_newton_iterations") == "0"
    assert _summary_value(out, "collocation_residual") == "inf"
    assert _summary_value(out, "norm_bound_at_initial_guess") == "inf"
    assert _summary_value(out, "oracle_agreement_sup") == "n/a"  # both kept u0
    _, rows = read_csv(out_csv)
    assert len(rows) == 41
    assert all(row[2] == "nan" for row in rows)


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", "f = 1e400\na = t^2\ngrid_n = 40\n"),
        ("solve", "f = u*0+1e400\na = t^2\ngrid_n = 40\n"),
        ("analyze", "f = 1e400\na = t^2\n"),
        ("analyze", "f = u\na = 1e400*t^2\n"),
    ],
    ids=["solve-f", "solve-f-sum", "analyze-f", "analyze-a"],
)
def test_overflowing_literal_exit(tmp_path, capsys, command, text):
    path = write_problem(tmp_path, text)
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'1e400'" in err[0]


# --- analyze ----------------------------------------------------------------


def test_analyze_saturating(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u*(1-exp(-u))\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "criterion_f0_zero_applicable = true" in out
    assert "criterion_finf_zero_applicable = false" in out
    assert "predecessor_superlinear_applicable = false" in out


def test_analyze_bounded(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1-exp(-u)\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "criterion_finf_zero_applicable = true" in out
    assert "bounded_case = true" in out
    assert "predecessor_sublinear_applicable = false" in out


def test_analyze_square(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u^2\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "criterion_f0_zero_applicable = true" in out
    assert "criterion_finf_zero_applicable = false" in out
    assert "finf = divergent" in out


def test_analyze_h1_violation(tmp_path, capsys):
    for f, message in NEGATIVE_F.items():
        path = write_problem(tmp_path, f"f = {f}\na = t^2\n")
        assert cli.main(["analyze", path, "--out", str(tmp_path / "out")]) == 2
        assert_refused(capsys, "H1", message, tmp_path / "out")


def test_analyze_overflowing_superlinear(tmp_path, capsys):
    # f overflows on the rho1 scan near u = 709; the crossing of
    # f = (1 - alpha) u lies at u e^u = 2/3, long before
    path = write_problem(tmp_path, "f = u^2*exp(u)\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "criterion_f0_zero_applicable = true" in out
    rho1 = float(out.split("rho1 = ")[1].splitlines()[0])
    root = scipy.optimize.brentq(lambda u: u * math.exp(u) - 2.0 / 3.0, 0.1, 1.0, xtol=1e-15)
    assert rho1 == pytest.approx(root, abs=1e-6)


def test_analyze_overflow_on_boundedness_probe(tmp_path, capsys):
    # finf = 0 on the 10^k schedule, but f overflows near u = 500 on the
    # (0, 1e6] probe: no finite L or sigma, so no finf certificate
    path = write_problem(tmp_path, "f = exp(800-(u-500)^2)\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "finf = 0 (converged)" in out
    assert "criterion_finf_zero_applicable = false" in out


# analyze and solve learn of an H2 failure only from make_context, so both
# print the same one error line and no report
H2_FAILURES = {
    "t-0.5": "a(0.0) = -0.5 < 0",
    "2*t": "total mass of a over [0,1] is 1.0, required strictly inside (0, 1)",
    # unit masses whose quadrature sum rounds to just below 1: 1 - alpha is rounding alone
    **{a: f"total mass of a over [0,1] is {alpha}, 1 up to its rounding error {rounding},"
          " required strictly inside (0, 1)"
       for a, alpha, rounding in [("3*t^2", "0.9999999999999999", "1.3e-13"),
                                  ("1\nquad_panels = 1000", "0.9999999999999999", "6.7e-13"),
                                  ("2*t\nquad_panels = 7", "0.9999999999999997", "4.7e-15"),
                                  ("2*t\nquad_panels = 100", "0.9999999999999999", "6.7e-14")]},
    "0.1/(t-1/2)^2": "a cannot be evaluated at t = 0.5: division by zero at offset 3",
}


# f0 or finf reads 0, yet the certificate is refused (or Case 2 has no point
# above the ray): the four branches the fixtures and the samples above skip
CERTIFICATE_BRANCHES = {
    # f(1e-9) = 1e-9 lies above (2/3) u at the first scan point
    "1000000000000000000*u^3": ["f0 = 9.9999999999999995e-07 (converged)",
                                "criterion_f0_zero_applicable = false"],
    # f <= (2/3) u only up to u ~ 8.2e-7, below RHO1_MIN = 1e-6
    "1000000000000*u^3": ["f0 = 9.9999999999999998e-13 (converged)",
                          "criterion_f0_zero_applicable = false"],
    # f <= u/2 < (2/3) u everywhere but grows through the last decade: rho2 is the first scan point
    "0.5*u*exp(-u/1000000)": ["criterion_finf_zero_applicable = true", "bounded_case = false",
                              "rho2 = 1.0000000000000001e-09", "sigma = 7.4999999999999927e-10",
                              "rho_hat2 = 1.0000000000000001e-09"],
    # f(1e6) = 0.78e6 lies above (2/3) u at the probe's cap
    "u*exp(-(u/2000000)^2)": ["finf = 0 (converged)", "criterion_finf_zero_applicable = false"],
}


@pytest.mark.parametrize("f", CERTIFICATE_BRANCHES)
def test_analyze_certificate_branches(tmp_path, capsys, f):
    path = write_problem(tmp_path, f"f = {f}\na = t^2\n")
    assert cli.main(["analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert set(CERTIFICATE_BRANCHES[f]) <= set(lines)


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_unevaluable_weight_is_h2_violation(tmp_path, capsys, command):
    for a, message in H2_FAILURES.items():
        path = write_problem(tmp_path, f"f = 1-exp(-u)\na = {a}\n")
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
        assert_refused(capsys, "H2", message, tmp_path / "out")


# a fails at one point only: an abscissa of beta's rule on [theta, 1 - theta]
# (theta = 0.25), or node 1 of a 3200-interval grid; or at that abscissa and
# at t = 0.5, a uniform H2 point, where the error names the smaller t
TWO_POLES = ("0.1 + 0.000000000000000000000000000001/(t-0.25125)^2"
             " + 0.000000000000000000000000000001/(t-0.5)^2")


@pytest.mark.parametrize(
    "command, text, t",
    [
        ("analyze", "a = 0.1 + 0.000000000000000000000000000001/(t-0.25125)^2\n", "0.25125"),
        ("solve", "a = 0.1 + 0.000000000000000000000000000001/(t-0.25125)^2\n", "0.25125"),
        ("solve", "a = 0.1 + 0.000000000000000000000000000001/(t-0.0003125)^2\n"
                  "grid_n = 3200\n", "0.0003125"),
        ("analyze", f"a = {TWO_POLES}\n", "0.25125"),
        ("solve", f"a = {TWO_POLES}\n", "0.25125"),
    ],
    ids=["analyze-beta-abscissa", "solve-beta-abscissa", "solve-grid-node",
         "analyze-two-poles", "solve-two-poles"],
)
def test_weight_failing_at_one_sample_exits_2(tmp_path, capsys, command, text, t):
    path = write_problem(tmp_path, "f = 0.5*u/(1+u) + 0.3\n" + text)
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hypothesis H2 violated")
    assert f"a cannot be evaluated at t = {t}:" in err[0]
    assert captured.out == "" and not (tmp_path / "out").exists()


UNDEFINED_AT_ZERO = {
    "1/u": "f cannot be evaluated at u = 0: division by zero at offset 1",
    "exp(-1/u)": "f cannot be evaluated at u = 0: division by zero at offset 6",
}


@pytest.mark.parametrize(
    "command, text, code, err",
    [
        # f(u0) ~ 1.8e308 is finite, but f overflows where Newton probes f'
        ("solve", "f = exp(u)\na = t^2\ngrid_n = 40\nu0 = constant 709.7825\n", 4, ""),
        # f overflows inside the bracket that the rho1 rescans narrow
        ("analyze", "f = u*exp(10000*(u-705))\na = t^2\n", 0, ""),
        # f cannot be evaluated at u = 0: H1 fails
        ("analyze", "f = 1/u\na = t^2\n", 2,
         f"error: hypothesis H1 violated: {UNDEFINED_AT_ZERO['1/u']}\n"),
        ("analyze", "f = exp(-1/u)\na = t^2\n", 2,
         f"error: hypothesis H1 violated: {UNDEFINED_AT_ZERO['exp(-1/u)']}\n"),
    ],
    ids=["solve-newton-probe", "analyze-rho1-bisection", "analyze-f-at-zero-pole",
         "analyze-f-at-zero-exp"],
)
def test_failing_f_evaluation_exits_cleanly(tmp_path, capsys, command, text, code, err):
    path = write_problem(tmp_path, text)
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    # a refused problem prints no report and writes no file
    assert (captured.out == "") == (code == 2) and (tmp_path / "out").exists() == (code != 2)


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("f", ["1/u", "exp(-1/u)"])
def test_f_undefined_at_zero_fails_h1(tmp_path, capsys, command, f):
    path = write_problem(tmp_path, f"f = {f}\na = t^2\n")
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
    assert_refused(capsys, "H1", UNDEFINED_AT_ZERO[f], tmp_path / "out")


def test_solve_overflow_of_A_only_at_initial_guess(tmp_path, capsys):
    # f(u0) ~ 1.8e308 is finite, its bound too; A u0 and the final residual overflow
    text = "f = exp(u)\na = t^2\ngrid_n = 40\nu0 = constant 709.7825\n"
    out_csv = tmp_path / "u.csv"
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(out_csv)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _summary_value(captured.out, "residual_integral") == "inf"
    assert math.isfinite(float(_summary_value(captured.out, "norm_bound_at_initial_guess")))
    _, rows = read_csv(out_csv)
    assert all(row[2] == "nan" for row in rows)


def test_solve_builds_one_operator(tmp_path, capsys, monkeypatch):
    # Picard builds the operator; the start bound, the CSV rows and the gate
    # read its report, and where the stopping rules' error does not cover the
    # agreement (2.8e-5 for the steep problem at n = 20), the gate applies the
    # same operator to the oracle's solution
    builds = []
    build = linear.operator_matrix

    def counting_build(ctx, n):
        builds.append(n)
        return build(ctx, n)

    for module in (linear, solver, cli):
        monkeypatch.setattr(module, "operator_matrix", counting_build)
    example_a = resources.files("beambvp.fixtures").joinpath("example_a.problem").read_text()
    for text, n in ((example_a, 800), (STEEP_SATURATING + "grid_n = 20\n", 20)):
        builds.clear()
        assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
        assert builds == [n]


CSV_CASES = {
    "converged": ("1+u", 1.0),
    "A-overflows": ("exp(u)", 709.7825),  # f(u0) ~ 1.8e308 is finite, A f(u0) is not
    "f-fails": ("0.001*exp(u)", 800.0),
}


@pytest.mark.parametrize("f_text, u0", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_solution_csv_rows_from_report_match_recomputed(tmp_path, ctx_t2, f_text, u0):
    f = parse(f_text, "u")
    report = solver.picard_solve(f, ctx_t2, solver.SolveConfig(n=40, u0=u0))

    def unused_f(us):
        raise AssertionError("the rows from the report evaluated f")

    tables = {
        "recomputed": cli._solution_csv_rows(report.solution, f, ctx_t2),
        "report": cli._solution_csv_rows(report.solution, unused_f, ctx_t2, report),
    }
    for name, rows in tables.items():
        cli._write_csv(str(tmp_path / f"{name}.csv"), ["t", "u", "Au", "fourth_diff_residual"], rows)
    assert (tmp_path / "recomputed.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()
    _, rows = read_csv(tmp_path / "report.csv")
    assert all(row[2] == "nan" for row in rows) == (f_text != "1+u")
    assert all(row[3] == "nan" for row in rows) == (f_text == "0.001*exp(u)")


def test_solution_csv_rows_evaluate_f_once(ctx_t2):
    calls = []

    def counting_f(us):
        calls.append(us)
        return us + 1.0

    rows = cli._solution_csv_rows(GridFunction.constant(1.0, 40), counting_f, ctx_t2)
    assert len(rows) == 41 and len(calls) == 1


# every float class the %.17g format renders differently
CSV_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.1, 1e-5, 1e16, 1e17]


def test_write_csv_matches_per_row_format(tmp_path):
    table = np.column_stack([np.roll(CSV_VALUES, k) for k in range(4)])
    path = tmp_path / "table.csv"
    for header, rows in ((["t", "u", "Au", "fourth_diff_residual"], table),
                         (["t", "u"], table[:, :2])):  # the --plot-data slice
        cli._write_csv(str(path), header, rows)
        reference = ",".join(header) + "\n" + "".join(
            ",".join("%.17g" % x for x in row) + "\n" for row in rows.tolist())
        assert path.read_bytes() == reference.encode()


def test_analyze_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u*(1-exp(-u))\na = t^2\n")
    report = tmp_path / "analysis.txt"
    assert cli.main(["analyze", path, "--out", str(report)]) == 0
    assert "alpha = " in report.read_text()


def test_analyze_prints_the_constants_of_solve_summary(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1\na = t^2\ntheta = 0.1\ngrid_n = 40\n")
    assert cli.main(["analyze", path]) == 0
    analysis = capsys.readouterr().out
    assert cli.main(["solve", path, "--out", str(tmp_path / "u.csv")]) == 0
    summary = capsys.readouterr().out
    for key in ("alpha", "beta"):
        assert _summary_value(analysis, key) == _summary_value(summary, key)
    alpha = float(_summary_value(summary, "alpha"))
    assert _summary_value(analysis, "epsilon") == cli._fmt(1.0 - alpha)


def test_analyze_f_near_float_limit_is_quiet(tmp_path, capsys):
    # f(u)/u overflows on the f0 schedule: the ratio reads inf, without a warning
    path = write_problem(tmp_path, "f = 1e300*u + 1e300\na = t\n")
    assert cli.main(["analyze", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "f0 = divergent" in captured.out


NEAR_FLOAT_LIMIT = {
    # the oracle's rows overflow at u0, and for f = u Picard's A u0 and its ODE rows too
    "f-zero": ("f = 0\na = t^2\nu0 = constant 1e308\n", 4),
    "f-linear": ("f = u\na = 0.999\nu0 = constant 1e308\n", 4),
    # the ODE rows and their tolerance overflow only after division by h^4 = 2^-80
    "f-huge": ("f = 1e308\na = t^2\ngrid_n = 1048576\nmax_iter = 2\n", 0),
    # the mass of a overflows to inf, which (H2) refuses
    "a-huge": ("f = u\na = 1.7e308\n", 2),
}


@pytest.mark.parametrize("text, code", NEAR_FLOAT_LIMIT.values(), ids=NEAR_FLOAT_LIMIT.keys())
def test_solve_near_float_limit_is_quiet(tmp_path, capsys, text, code):
    # an overflow is a value, not a warning (pyproject makes a RuntimeWarning
    # an error); rows that overflow at u0 end the oracle as an f failure does
    assert cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")]) == code
    out = capsys.readouterr().out
    if code == 4:
        assert _summary_value(out, "collocation_status") == "diverged"
        assert _summary_value(out, "collocation_newton_iterations") == "0"
        assert _summary_value(out, "collocation_residual") == "inf"


@pytest.mark.parametrize("command, a_evals", [("solve", 3), ("analyze", 1)])
def test_evaluations_per_command(tmp_path, capsys, monkeypatch, command, a_evals):
    # solve reads a in the gate's context, on Picard's grid and at the oracle's
    # points (the CSV rows read Picard's report); analyze only in the gate's
    # context.  The H1 probe runs once, and f is never evaluated point by
    # point: its smallest array is the 8-point finf schedule.  analyze reads
    # the limit schedules and the boundedness scan from the gate's probe, so
    # f is evaluated again only on rho1's scan and its three rescans.
    calls = []
    evaluate = ExpressionFn.__call__

    def counting_call(fn, x):
        calls.append((fn.source, np.size(x)))
        return evaluate(fn, x)

    monkeypatch.setattr(ExpressionFn, "__call__", counting_call)
    fixture = resources.files("beambvp.fixtures").joinpath("example_a.problem")
    assert cli.main([command, str(fixture), "--out", str(tmp_path / "out")]) == 0
    assert sum(source == "t^2" for source, _ in calls) == a_evals
    probe = len(hypotheses._probe())
    assert calls.count(("u*(1-exp(-u))", probe)) == 1
    assert min(size for source, size in calls if source == "u*(1-exp(-u))") >= 8
    if command == "analyze":
        # never the 12- or 8-point schedule, nor the 10,001-point boundedness scan
        sizes = [size for source, size in calls if source == "u*(1-exp(-u))"]
        assert sizes == [probe, 10**4, 4097, 4097, 4097]
        calls.clear()
        fixture = resources.files("beambvp.fixtures").joinpath("example_b.problem")
        assert cli.main([command, str(fixture), "--out", str(tmp_path / "out")]) == 0
        assert [size for source, size in calls if source != "t^2"] == [probe]


# --- reproduce-examples -----------------------------------------------------


def test_reproduce_examples(tmp_path, capsys):
    assert cli.main(["reproduce-examples", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "criterion_f0_zero_applicable = true" in out
    assert "criterion_finf_zero_applicable = true" in out
    assert "without adjudication" in out
    for name in ("example_a", "example_b"):
        assert (tmp_path / f"{name}.solution.csv").exists()


def test_reproduce_examples_prints_the_analyze_block(tmp_path, capsys):
    fixture = resources.files("beambvp.fixtures").joinpath("example_a.problem")
    path = write_problem(tmp_path, fixture.read_text(), "example_a.problem")
    assert cli.main(["analyze", path]) == 0
    analyze = capsys.readouterr().out.splitlines()
    assert cli.main(["reproduce-examples", "--grid", "200", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("=== example_a:")) + 1
    assert len(analyze) == 20 and lines[start : start + 20] == analyze


def test_reproduce_examples_theta_independent_verdicts(tmp_path, capsys):
    # grid kept small: theta only enters the kernel context, not the limits
    assert cli.main([
        "reproduce-examples", "--theta", "0.1", "--grid", "200", "--out-dir", str(tmp_path)
    ]) == 0
    out = capsys.readouterr().out
    assert "criterion_f0_zero_applicable = true" in out
    assert "criterion_finf_zero_applicable = true" in out


@pytest.mark.parametrize("override", ["--theta 0.7", "--grid 7", "--grid 10"])
def test_reproduce_examples_rejects_bad_override(tmp_path, capsys, override):
    argv = ["reproduce-examples", *override.split(), "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_reproduce_examples_checks_its_csv_paths_first(tmp_path, capsys):
    (tmp_path / "example_b.solution.csv").mkdir()
    assert cli.main(["reproduce-examples", "--grid", "40", "--out-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "example_b.solution.csv" in err[0]
    assert captured.out == "" and not (tmp_path / "example_a.solution.csv").exists()


def test_reproduce_examples_bad_override_creates_no_dir(tmp_path, capsys):
    out_dir = tmp_path / "fresh"
    assert cli.main(["reproduce-examples", "--theta", "0.7", "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()


# --- usage errors -----------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        "verify-lemmas --theta 0.7",
        "verify-lemmas --theta 0.1,x",
        # --grid went with the sampled kernel checks: any value is now refused
        "verify-lemmas --grid 0",
        "verify-lemmas --grid -4",
        "verify-lemmas --grid 1",
        "verify-lemmas --grid 2001",
        "solve",
        "no-such-command",
    ],
)
def test_usage_errors_exit_parse(capsys, command):
    try:
        code = cli.main(command.split())
    except SystemExit as exc:  # argparse exits from inside parse_args
        code = exc.code
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_grid_self_consistency(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE)
    coarse, fine = tmp_path / "coarse.csv", tmp_path / "fine.csv"
    base = cli.parse_problem(PROBE)
    for n, out in ((200, coarse), (1600, fine)):
        text = PROBE.replace("grid_n = 200", f"grid_n = {n}")
        assert cli.main(["solve", write_problem(tmp_path, text, f"n{n}.problem"),
                         "--out", str(out)]) == 0
    _, rows_c = read_csv(coarse)
    _, rows_f = read_csv(fine)
    u_c = np.array([float(r[1]) for r in rows_c])
    u_f = np.array([float(r[1]) for r in rows_f])
    assert float(np.max(np.abs(u_c - u_f[::8]))) < 1e-6
    assert base.grid_n == 200


# --- output paths -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{problem}", "--out", "{bad}"],
        pytest.param(["solve", "{problem}", "--out", "{ok}", "--plot-data", "{bad}"],
                     id="solve-plot-data"),
        ["analyze", "{problem}", "--out", "{bad}"],
        ["verify-lemmas", "--report", "{bad}"],
        ["reproduce-examples", "--grid", "40", "--out-dir", "{bad}"],
        # a file output that names an existing directory
        pytest.param(["solve", "{problem}", "--out", "{dir}"], id="solve-dir"),
        pytest.param(["solve", "{problem}", "--out", "{ok}", "--plot-data", "{dir}"],
                     id="solve-plot-data-dir"),
        pytest.param(["analyze", "{problem}", "--out", "{dir}"], id="analyze-dir"),
        pytest.param(["verify-lemmas", "--report", "{dir}"],
                     id="verify-lemmas-dir"),
        # an output that names the input file or another output
        pytest.param(["solve", "{problem}", "--out", "{problem}"], id="solve-out-is-input"),
        pytest.param(["solve", "{problem}", "--out", "{ok}", "--plot-data", "{alias}"],
                     id="solve-plot-data-is-input"),
        pytest.param(["solve", "{problem}", "--out", "{ok}", "--plot-data", "{ok}"],
                     id="solve-plot-data-is-out"),
        pytest.param(["analyze", "{problem}", "--out", "{alias}"], id="analyze-out-is-input"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_path_exit(tmp_path, capsys, argv):
    # the bad path lies under a regular file, so it can be neither created nor
    # opened, and the dir path is a directory; the command finds that out
    # before any work, so stdout holds no report
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    names = dict(problem=write_problem(tmp_path, PROBE), bad=str(tmp_path / "file" / "x"),
                 ok=str(tmp_path / "ok.csv"), dir=str(tmp_path / "dir"),
                 alias=str(tmp_path / "dir" / ".." / "case.problem"))
    assert cli.main([arg.format(**names) for arg in argv]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.problem", "dir", "file"]
    assert not any((tmp_path / "dir").iterdir())
    assert (tmp_path / "case.problem").read_text() == PROBE


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["analyze", "{loop}"], "cannot read problem file {loop}: ", id="analyze-loop"),
        pytest.param(["solve", "{loop}", "--out", "{ok}"], "cannot read problem file {loop}: ",
                     id="solve-loop"),
        pytest.param(["solve", "{problem}", "--out", "{loop}"], "cannot write output: {loop}: ",
                     id="solve-out-loop"),
        pytest.param(["analyze", "{latin1}"], "cannot read problem file {latin1}: ",
                     id="analyze-not-utf8"),
    ],
)
def test_unreadable_path_exits_3(tmp_path, capsys, argv, err):
    # a symbolic link to itself, and a problem that is valid but for one byte
    # that is not UTF-8 in a comment
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "latin1.problem").write_bytes(PROBE.encode() + b"# \xff\n")
    names = dict(problem=write_problem(tmp_path, PROBE), loop=str(tmp_path / "loop"),
                 ok=str(tmp_path / "ok.csv"), latin1=str(tmp_path / "latin1.problem"))
    assert cli.main([arg.format(**names) for arg in argv]) == 3
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: " + err.format(**names))
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.problem", "latin1.problem", "loop"]


@pytest.mark.parametrize(
    "argv, text, err",
    [
        pytest.param(["solve", "{problem}", "--out", "{out}"], "grid_n = 100000000000000000000",
                     "{problem}: grid resolution must be at most 1048576, got 1", id="solve-grid"),
        pytest.param(["analyze", "{problem}", "--out", "{out}"], "grid_n = 1048578",
                     "{problem}: grid resolution must be at most 1048576, got 1048578",
                     id="analyze-grid"),
        pytest.param(["analyze", "{problem}", "--out", "{out}"],
                     "quad_panels = 100000000000000000000",
                     "{problem}: panels must be at most 100000, got 1", id="analyze-panels"),
        pytest.param(["solve", "{problem}", "--out", "{out}"], "quad_panels = 0",
                     "{problem}: panels must be a positive integer, got 0", id="solve-no-panels"),
        pytest.param(["reproduce-examples", "--grid", "100000000000000000000", "--out-dir", "{out}"],
                     "", "grid resolution must be at most 1048576, got 1", id="reproduce-grid"),
    ],
)
def test_oversized_setting_exits_3(tmp_path, capsys, argv, text, err):
    names = dict(problem=write_problem(tmp_path, f"f = 1\na = t^2\n{text}\n"),
                 out=str(tmp_path / "out"))
    assert cli.main([arg.format(**names) for arg in argv]) == 3
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: " + err.format(**names))
    assert captured.out == "" and not (tmp_path / "out").exists()


# --- state kept between main calls in one process ---------------------------


def test_main_builds_one_parser_per_process(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE)
    cli.build_parser.cache_clear()
    assert cli.main(["analyze", path]) == 0
    assert cli.main(["analyze", path]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_u0_override_does_not_outlive_its_call(tmp_path, capsys):
    path = write_problem(tmp_path, PROBE + "u0 = constant 1\n")
    own, override, again = (tmp_path / f"{name}.csv" for name in ("own", "override", "again"))
    assert cli.main(["solve", path, "--out", str(own)]) == 0
    assert cli.main(["solve", path, "--out", str(override), "--u0", "constant 2"]) == 0
    assert cli.main(["solve", path, "--out", str(again)]) == 0
    assert override.read_bytes() != own.read_bytes()
    assert again.read_bytes() == own.read_bytes()


def test_usage_error_does_not_outlive_its_call(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--no-such-option"])
    assert exc.value.code == 3
    assert cli.main(["analyze", write_problem(tmp_path, PROBE)]) == 0
