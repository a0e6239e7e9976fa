import math
from importlib import resources

import numpy as np
import pytest
import scipy.optimize

from beambvp import cli
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


def test_verify_lemmas_near_boundary_theta(capsys):
    assert cli.main(["verify-lemmas", "--theta", "0.49", "--grid", "400"]) == 0


def test_verify_lemmas_corrupted_kernel_fails(monkeypatch, capsys):
    green_matrix = cli.kernel.green_matrix
    monkeypatch.setattr(cli.kernel, "green_matrix", lambda ts, ss: -green_matrix(ts, ss))
    assert cli.main(["verify-lemmas"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


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


def test_solve_hypothesis_violation_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1\na = 2*t\n")
    assert cli.main(["solve", path]) == 2


def test_solve_parse_error_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u +\na = t^2\n")
    assert cli.main(["solve", path]) == 3
    assert "offset 3" in capsys.readouterr().err


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
    # at n = 12800, h^4 f(0) ~ 1e-17: u = 0 must not pass as the oracle's solution
    text = "f = 0.5*u/(1+u) + 0.3\na = 0.9*t^2\ngrid_n = 12800\nu0 = constant 0\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    norm = float(_summary_value(out, "solution_sup_norm"))
    agreement = float(_summary_value(out, "oracle_agreement_sup"))
    assert norm > 1e-3
    assert code == 4 or agreement < 1e-6 * norm


def test_solve_huge_initial_guess(tmp_path, capsys):
    text = "f = 1+u\na = t^2\ngrid_n = 200\nu0 = constant 1e300\n"
    code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(tmp_path / "u.csv")])
    out = capsys.readouterr().out
    assert _summary_value(out, "collocation_status") == "converged"
    assert code == 0


def test_solve_diverged_iterate_writes_nan_column(tmp_path, capsys):
    # the last finite Picard iterate is ~1e149, so f overflows on it
    text = "f = 50*exp(u^3)\na = t^2\ngrid_n = 100\nmax_iter = 50\n"
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
    path = write_problem(tmp_path, "f = u-1\na = t^2\n")
    assert cli.main(["analyze", path]) == 2


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
    "0.1/(t-1/2)^2": "a cannot be evaluated at t = 0.5: division by zero at offset 3",
}


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_unevaluable_weight_is_h2_violation(tmp_path, capsys, command):
    for a, message in H2_FAILURES.items():
        path = write_problem(tmp_path, f"f = 1-exp(-u)\na = {a}\n")
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: hypothesis H2 violated: {message}"]
        assert captured.out == "" and not (tmp_path / "out").exists()


# a fails at one point only: an abscissa of beta's rule on [theta, 1 - theta]
# (theta = 0.25), or node 1 of a 3200-interval grid
@pytest.mark.parametrize(
    "command, text, t",
    [
        ("analyze", "a = 0.1 + 0.000000000000000000000000000001/(t-0.25125)^2\n", "0.25125"),
        ("solve", "a = 0.1 + 0.000000000000000000000000000001/(t-0.25125)^2\n", "0.25125"),
        ("solve", "a = 0.1 + 0.000000000000000000000000000001/(t-0.0003125)^2\n"
                  "grid_n = 3200\n", "0.0003125"),
    ],
    ids=["analyze-beta-abscissa", "solve-beta-abscissa", "solve-grid-node"],
)
def test_weight_failing_at_one_sample_exits_2(tmp_path, capsys, command, text, t):
    path = write_problem(tmp_path, "f = 0.5*u/(1+u) + 0.3\n" + text)
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hypothesis H2 violated")
    assert f"a cannot be evaluated at t = {t}:" in err[0]
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text, code",
    [
        # f(u0) ~ 1.8e308 is finite, but f overflows where Newton probes f'
        ("solve", "f = exp(u)\na = t^2\ngrid_n = 40\nu0 = constant 709.7825\n", 4),
        # f overflows at a midpoint of the rho1 bisection
        ("analyze", "f = u*exp(10000*(u-705))\na = t^2\n", 0),
        # f cannot be evaluated at u = 0: H1 fails
        ("analyze", "f = 1/u\na = t^2\n", 2),
        ("analyze", "f = exp(-1/u)\na = t^2\n", 2),
    ],
    ids=["solve-newton-probe", "analyze-rho1-bisection", "analyze-f-at-zero-pole",
         "analyze-f-at-zero-exp"],
)
def test_failing_f_evaluation_exits_cleanly(tmp_path, capsys, command, text, code):
    path = write_problem(tmp_path, text)
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("f", ["1/u", "exp(-1/u)"])
def test_f_undefined_at_zero_fails_h1(tmp_path, capsys, command, f):
    path = write_problem(tmp_path, f"f = {f}\na = t^2\n")
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "hypothesis_h1 = false" in captured.out and captured.err == ""


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


def test_solution_csv_rows_evaluate_f_once(ctx_t2):
    calls = []

    def counting_f(us):
        calls.append(us)
        return us + 1.0

    rows = cli._solution_csv_rows(GridFunction.constant(1.0, 40), counting_f, ctx_t2)
    assert len(rows) == 41 and len(calls) == 1


def test_analyze_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, "f = u*(1-exp(-u))\na = t^2\n")
    report = tmp_path / "analysis.txt"
    assert cli.main(["analyze", path, "--out", str(report)]) == 0
    assert "alpha = " in report.read_text()


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
        "verify-lemmas --grid 0",
        "verify-lemmas --grid -4",
        "verify-lemmas --grid 1",  # no node in [theta, 1 - theta]
        "verify-lemmas --grid 2001",  # dense (grid + 1)^2 checks: a memory cliff
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
        ["verify-lemmas", "--grid", "20", "--report", "{bad}"],
        ["reproduce-examples", "--grid", "40", "--out-dir", "{bad}"],
        # a file output that names an existing directory
        pytest.param(["solve", "{problem}", "--out", "{dir}"], id="solve-dir"),
        pytest.param(["solve", "{problem}", "--out", "{ok}", "--plot-data", "{dir}"],
                     id="solve-plot-data-dir"),
        pytest.param(["analyze", "{problem}", "--out", "{dir}"], id="analyze-dir"),
        pytest.param(["verify-lemmas", "--grid", "20", "--report", "{dir}"],
                     id="verify-lemmas-dir"),
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
                 ok=str(tmp_path / "ok.csv"), dir=str(tmp_path / "dir"))
    assert cli.main([arg.format(**names) for arg in argv]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.problem", "dir", "file"]
    assert not any((tmp_path / "dir").iterdir())
