from importlib import resources

import numpy as np
import pytest

from beambvp import cli

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
    assert problem.u0 == "zero"


def test_problem_comments_and_values():
    problem = cli.parse_problem(
        "f = u*(1-exp(-u))  # nonlinearity\na = t^2\ntheta = 0.1\nu0 = constant 1\n"
    )
    assert problem.theta == 0.1
    assert problem.u0 == 1.0


@pytest.mark.parametrize(
    "text",
    [
        "a = t^2\n",  # missing f
        "f = 1\na = t^2\nf = 2\n",  # duplicate
        "f = 1\na = t^2\nwidth = 3\n",  # unknown key
        "f = 1\na = t^2\ntheta = 0.7\n",  # theta out of range
        "f = 1\na = t^2\ngrid_n = 201\n",  # odd grid
        "f = 1\na = t^2\nu0 = ramp\n",  # bad descriptor
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


def test_verify_lemmas_corrupted_kernel_fails(capsys):
    assert cli.main(["verify-lemmas", "--corrupt-kernel"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_lemmas_report_file(tmp_path, capsys):
    report = tmp_path / "lemmas.csv"
    assert cli.main(["verify-lemmas", "--report", str(report)]) == 0
    header, rows = read_csv(report)
    assert header[0] == "check"
    assert len(rows) >= 8


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


def test_solve_nonconvergence_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "f = 1+u\na = t^2\ngrid_n = 200\nmax_iter = 2\ntol = 1e-16\n")
    out_csv = tmp_path / "u.csv"
    assert cli.main(["solve", path, "--out", str(out_csv)]) == 4
    # report still written
    _, rows = read_csv(out_csv)
    assert len(rows) == 201


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
