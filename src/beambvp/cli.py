"""Command-line front end.

Subcommands:

* ``verify-lemmas``: grid checks of the kernel inequalities plus cone
  checks on random nonnegative loads; exit 0 iff everything holds.
* ``solve FILE``: Picard solve cross-checked against the collocation
  oracle; writes a solution CSV and prints a summary block.
* ``analyze FILE``: growth-limit estimates and existence-criterion
  certificates for the problem's nonlinearity.
* ``reproduce-examples``: runs analyze + solve for the two bundled
  example problems and prints a combined report.

Exit codes: 0 ok, 1 lemma violation, 2 hypothesis violation,
3 parse or usage error (an unreadable input or unwritable output
included), 4 solver non-convergence.

Problem files are flat ``key = value`` text with ``#`` comments; keys
are f, a, theta, grid_n, quad_panels, tol, max_iter, u0.  All reals in
CSV output carry 17 significant digits and reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import hypotheses, kernel, solver
from .errors import HypothesisViolation
from .exprlang import ExpressionFn, ExprEvalError, ExprSyntaxError, parse
from .grid import GridFunction
from .kernel import KernelContext
from .linear import cone_ratio, operator_matrix
from .quadrature import QuadratureSettings
from .solver import SolveConfig

EXIT_OK = 0
EXIT_LEMMA = 1
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_NONCONVERGENCE = 4

_RNG_SEED = 20240801
_DEFAULT_THETAS = (0.1, 0.25, 0.4)
_MAX_LEMMA_GRID = 2000  # verify-lemmas builds dense (grid + 1)^2 arrays


class ProblemError(ValueError):
    """Malformed problem file or command-line value (unknown key, bad
    literal, missing field, value out of range)."""


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem with every default.  theta and quad_panels are
    checked here, the solve settings by the SolveConfig built from them."""

    f: ExpressionFn
    a: ExpressionFn
    theta: float = kernel.DEFAULT_THETA
    grid_n: int = SolveConfig.n
    quad_panels: int = QuadratureSettings.panels
    tol: float = SolveConfig.tol
    max_iter: int = SolveConfig.max_iter
    u0: float = SolveConfig.u0

    def __post_init__(self):
        if not 0.0 < self.theta < 0.5:
            raise ProblemError(f"theta must lie in (0, 1/2), got {self.theta}")
        if self.quad_panels < 1:
            raise ProblemError(f"quad_panels must be >= 1, got {self.quad_panels}")
        self.config()  # SolveConfig checks grid_n, tol, max_iter and u0

    @property
    def quad(self) -> QuadratureSettings:
        return QuadratureSettings(panels=self.quad_panels)

    def config(self, u0_override: Optional[str] = None) -> SolveConfig:
        u0 = self.u0 if u0_override is None else parse_u0(u0_override)
        try:
            return SolveConfig(n=self.grid_n, tol=self.tol, max_iter=self.max_iter, u0=u0)
        except ValueError as exc:
            raise ProblemError(str(exc)) from None


def parse_u0(descriptor: str) -> float:
    """Initial-guess descriptor: "zero" (0.0) or "constant <c>"."""
    words = descriptor.split()
    if words == ["zero"]:
        return 0.0
    if len(words) == 2 and words[0] == "constant":
        try:
            return float(words[1])
        except ValueError:
            raise ProblemError(f"bad constant in u0 descriptor {descriptor!r}") from None
    raise ProblemError(f"unknown u0 descriptor {descriptor!r} (use 'zero' or 'constant <c>')")


# converters of the optional problem-file keys; defaults live on ProblemFile
_OPTIONAL_KEYS = {
    "theta": float, "grid_n": int, "quad_panels": int, "tol": float, "max_iter": int,
    "u0": parse_u0,
}


def parse_problem(text: str, origin: str = "<problem>") -> ProblemFile:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ProblemError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ProblemError(f"{origin}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    for required in ("f", "a"):
        if required not in raw:
            raise ProblemError(f"{origin}: missing required key {required!r}")
    unknown = sorted(raw.keys() - {"f", "a"} - _OPTIONAL_KEYS.keys())
    if unknown:
        raise ProblemError(f"{origin}: unknown keys {unknown}")
    try:
        f = parse(raw.pop("f"), "u")
        a = parse(raw.pop("a"), "t")
    except ExprSyntaxError as exc:
        raise ProblemError(f"{origin}: {exc}") from exc
    values = {}
    for key, text in raw.items():
        try:
            values[key] = _OPTIONAL_KEYS[key](text)
        except ValueError as exc:  # parse_u0's ProblemError included
            raise ProblemError(f"{origin}: bad value for {key!r}: {exc}") from None
    try:
        return ProblemFile(f=f, a=a, **values)
    except ProblemError as exc:
        raise ProblemError(f"{origin}: {exc}") from None


def load_problem(path: str) -> ProblemFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem(text, origin=path)


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _check_output_paths(*paths: str | Path | None) -> None:
    """Fail before any work when an output is a directory or lies in no writable one."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise OSError(f"{path}: {parent} is not a writable directory")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write float rows, every cell with 17 significant digits."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(line % tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# verify-lemmas


def _kernel_grid_checks(thetas: Sequence[float], n: int) -> list[dict]:
    """Grid checks of kernel nonnegativity, two-sided bound, boundary identity."""
    ts = np.linspace(0.0, 1.0, n + 1)
    g_mat = kernel.green_matrix(ts, ts)  # rows t, cols s
    g_env = kernel.g_weight(ts)

    def worst(check, theta, gap, limit, rows):  # the minimum of gap, located
        wi, wj = np.unravel_index(int(np.argmin(gap)), gap.shape)
        value = float(gap[wi, wj])
        return dict(check=check, theta=theta, value=value, limit=limit,
                    ok=value >= limit, t=float(rows[wi]), s=float(ts[wj]))

    results = [worst("nonnegativity", None, g_mat, -1e-14, ts)]
    for theta in thetas:
        inner = (ts >= theta - 1e-12) & (ts <= 1.0 - theta + 1e-12)
        if not inner.any():
            raise ProblemError(f"a {n}-interval grid has no node in [theta, 1 - theta] "
                               f"for theta = {theta}")
        block = g_mat[inner, :]
        results.append(worst("lower-bound", theta, block - (theta**3) * g_env[None, :],
                             -1e-12, ts[inner]))
        results.append(worst("upper-bound", theta, g_env[None, :] - block, -1e-12, ts[inner]))

    boundary_gap = float(np.max(np.abs(g_mat[-1, :] - g_env)))
    wj = int(np.argmax(np.abs(g_mat[-1, :] - g_env)))
    results.append(
        dict(check="boundary-identity", theta=None, value=boundary_gap, limit=1e-14,
             ok=boundary_gap < 1e-14, t=1.0, s=float(ts[wj]))
    )
    return results


def _random_nonneg_poly(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Coefficients of a polynomial >= 0.05 on [0, 1]."""
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    xs = np.linspace(0.0, 1.0, 512)
    low = float(np.min(np.polynomial.polynomial.polyval(xs, coeffs)))
    coeffs[0] += 0.05 - low
    return coeffs


def _cone_checks(thetas: Sequence[float], n: int) -> list[dict]:
    """Lemma check: solutions of the linear problem for random nonnegative
    loads stay nonnegative and satisfy the cone inequality."""
    rng = np.random.default_rng(_RNG_SEED)
    a = parse("t^2", "t")
    results = []
    loads = [_random_nonneg_poly(rng, 4) for _ in range(20)]
    for theta in thetas:
        ctx = kernel.make_context(a, theta=theta)
        op = operator_matrix(ctx, n)
        worst_margin, worst_min, worst_case = np.inf, np.inf, -1
        for case, coeffs in enumerate(loads):
            u = GridFunction(n, op(np.polynomial.polynomial.polyval(
                np.linspace(0.0, 1.0, n + 1), coeffs)))
            check = cone_ratio(u, ctx)
            margin = check.min_inner - check.threshold * check.norm
            if margin < worst_margin:
                worst_margin, worst_case = margin, case
            worst_min = min(worst_min, u.min())
        results.append(
            dict(check="cone-inequality", theta=theta, value=worst_margin, limit=-1e-10,
                 ok=worst_margin >= -1e-10, t=None, s=float(worst_case))
        )
        results.append(
            dict(check="solution-nonneg", theta=theta, value=worst_min, limit=-1e-10,
                 ok=worst_min >= -1e-10, t=None, s=None)
        )
    return results


def cmd_verify_lemmas(args) -> int:
    _check_output_paths(args.report)
    thetas = args.theta or list(_DEFAULT_THETAS)
    results = _kernel_grid_checks(thetas, args.grid)
    results += _cone_checks(thetas, min(args.grid * 2, 400))
    print(f"kernel inequality checks on a {args.grid + 1} point grid, "
          f"thetas {', '.join(_fmt(t) for t in thetas)}")
    failed = False
    for res in results:
        status = "ok " if res["ok"] else "FAIL"
        where = ""
        if res["t"] is not None:
            where = f" at (t={_fmt(res['t'])}, s={_fmt(res['s'])}, theta={_fmt(res['theta'])})"
        print(f"  [{status}] {res['check']:<18} worst {_fmt(res['value'])}"
              f" (limit {_fmt(res['limit'])}){where}")
        failed = failed or not res["ok"]
    if args.report:
        with open(args.report, "w") as handle:
            handle.write("check,theta,worst,limit,ok,t,s\n")
            for r in results:
                cells = (r["check"], r["theta"], r["value"], r["limit"], r["ok"], r["t"], r["s"])
                handle.write(",".join(_fmt(cell) for cell in cells) + "\n")
        print(f"report written to {args.report}")
    print("verify-lemmas:", "FAIL" if failed else "PASS")
    return EXIT_LEMMA if failed else EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _solution_csv_rows(
    u: GridFunction, f: ExpressionFn, ctx: KernelContext
) -> list[list[float]]:
    n = u.n
    au, residual = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
    try:  # diverged iterates can overflow f or A; those columns stay nan
        fvals, au_vals, _ = solver._diagnose(u, f, ctx, operator_matrix(ctx, n))
        au = au if au_vals is None else au_vals
        aw = solver._nonlocal_weights(ctx, n)
        residual[2:-2] = solver._ode_defects(u, fvals[2:-2], aw)[2:-2]
    except ExprEvalError:
        pass
    return np.column_stack((u.ts, u.values, au, residual)).tolist()


def _solve_problem(problem: ProblemFile, h1h2, ctx: KernelContext, u0_override: Optional[str],
                   out_path, plot_path: Optional[str] = None) -> tuple[dict, int]:
    """Solve, cross-check, write the CSVs and print the summary; shared by
    cmd_solve and cmd_reproduce_examples.  Returns the outcome and exit code."""
    config = problem.config(u0_override)
    report = solver.picard_solve(problem.f, ctx, config)
    colloc = solver.collocation_oracle(problem.f, ctx, config)
    agreement = float(np.max(np.abs(report.solution.values - colloc.solution.values)))
    bound_at_start = solver.norm_bound_check(config.initial_guess(), problem.f, ctx)
    outcome = dict(
        h1h2=h1h2, ctx=ctx, config=config, report=report, colloc=colloc,
        agreement=agreement, bound_at_start=bound_at_start,
    )
    rows = _solution_csv_rows(report.solution, problem.f, ctx)
    _write_csv(out_path, ["t", "u", "Au", "fourth_diff_residual"], rows)
    if plot_path:
        _write_csv(plot_path, ["t", "u"], [row[:2] for row in rows])
    _print_solve_summary(problem, outcome)
    print(f"solution written to {out_path}")
    if not (h1h2.h1 and h1h2.h2):
        return outcome, EXIT_HYPOTHESIS
    if report.status != "converged" or colloc.status != "converged":
        return outcome, EXIT_NONCONVERGENCE
    return outcome, EXIT_OK


def _print_solve_summary(problem: ProblemFile, outcome: dict) -> None:
    ctx: KernelContext = outcome["ctx"]
    report = outcome["report"]
    colloc = outcome["colloc"]
    h1h2 = outcome["h1h2"]
    tol_interior = solver.interior_tolerance(problem.grid_n, report.solution.sup_norm())
    lines = [
        ("f", problem.f.source),
        ("a", problem.a.source),
        ("theta", ctx.theta),
        ("grid_n", problem.grid_n),
        ("alpha", ctx.alpha),
        ("beta", ctx.beta),
        ("hypothesis_h1", h1h2.h1),
        ("hypothesis_h2", h1h2.h2),
        ("status", report.status),
        ("iterations", report.iterations),
        ("final_delta", report.delta_trace[-1] if report.delta_trace else None),
        ("solution_sup_norm", report.solution.sup_norm()),
        ("trivial_fixed_point", report.trivial),
        ("residual_integral", report.residual_integral),
        ("residual_ode_interior", report.residual_ode.interior),
        ("residual_ode_interior_tol", tol_interior),
        ("residual_ode_bc", report.residual_ode.bc),
        ("cone_min_inner", report.cone.min_inner),
        ("cone_threshold_x_norm", report.cone.threshold * report.cone.norm),
        ("cone_ratio", report.cone.ratio),
        ("cone_satisfied", report.cone.satisfied),
        ("norm_bound_final", report.norm_bound),
        ("norm_bound_at_initial_guess", outcome["bound_at_start"].bound),
        ("collocation_status", colloc.status),
        ("collocation_newton_iterations", colloc.iterations),
        ("collocation_residual", colloc.residual),
        # a diverged method's solution is its last finite iterate, not an answer
        ("oracle_agreement_sup",
         None if "diverged" in (report.status, colloc.status) else outcome["agreement"]),
    ]
    for key, value in lines:
        print(f"{key} = {_fmt(value)}")


def cmd_solve(args) -> int:
    out_path = args.out or (Path(args.file).stem + ".solution.csv")
    _check_output_paths(out_path, args.plot_data)
    problem = load_problem(args.file)
    h1h2 = hypotheses.check_h1_h2(problem.f, problem.a, problem.quad)
    ctx = kernel.make_context(problem.a, theta=problem.theta, quad=problem.quad)
    return _solve_problem(problem, h1h2, ctx, args.u0, out_path, args.plot_data)[1]


# ---------------------------------------------------------------------------
# analyze


def _print_analysis(problem: ProblemFile, h1h2, report: hypotheses.HypothesisReport) -> list[str]:
    def estimate_line(name, est):
        if est.divergent:
            return f"{name} = divergent"
        flag = "converged" if est.converged else "not converged"
        return f"{name} = {_fmt(est.value)} ({flag})"

    cert0, certinf = report.f0_certificate, report.finf_certificate
    superlinear = cert0 is not None and report.finf_estimate.divergent
    sublinear = report.f0_estimate.divergent and certinf is not None
    lines = [
        f"f = {problem.f.source}",
        f"a = {problem.a.source}",
        f"hypothesis_h1 = {_fmt(h1h2.h1)}",
        f"hypothesis_h2 = {_fmt(h1h2.h2)}",
        f"alpha = {_fmt(report.alpha)}",
        f"beta = {_fmt(report.beta)}",
        estimate_line("f0", report.f0_estimate),
        estimate_line("finf", report.finf_estimate),
        f"epsilon = {_fmt(report.epsilon)}",
        f"criterion_f0_zero_applicable = {_fmt(cert0 is not None)}",
        f"rho1 = {_fmt(getattr(cert0, 'rho1', None))}",
        f"criterion_finf_zero_applicable = {_fmt(certinf is not None)}",
        *(f"{name} = {_fmt(getattr(certinf, name, None))}"
          for name in ("bounded_case", "L", "eta", "rho2", "sigma", "rho_hat2")),
        f"predecessor_superlinear_applicable = {_fmt(superlinear)}  # needs f0 = 0 and finf divergent",
        f"predecessor_sublinear_applicable = {_fmt(sublinear)}  # needs f0 divergent and finf = 0",
    ]
    for line in lines:
        print(line)
    return lines


def _analyze_problem(problem: ProblemFile, out_path: Optional[str] = None):
    """Print the analysis block (and write it to ``out_path``); shared by
    cmd_analyze and cmd_reproduce_examples.  Returns (h1h2, ctx, report)."""
    h1h2 = hypotheses.check_h1_h2(problem.f, problem.a, problem.quad)
    ctx = kernel.make_context(problem.a, theta=problem.theta, quad=problem.quad)
    report = hypotheses.build_report(problem.f, ctx)
    lines = _print_analysis(problem, h1h2, report)
    if out_path:
        Path(out_path).write_text("\n".join(lines) + "\n")
        print(f"analysis written to {out_path}")
    return h1h2, ctx, report


def cmd_analyze(args) -> int:
    _check_output_paths(args.out)
    h1h2, _, _ = _analyze_problem(load_problem(args.file), args.out)
    return EXIT_OK if h1h2.h1 and h1h2.h2 else EXIT_HYPOTHESIS


# ---------------------------------------------------------------------------
# reproduce-examples


def bundled_problem(name: str) -> ProblemFile:
    text = resources.files("beambvp.fixtures").joinpath(f"{name}.problem").read_text()
    return parse_problem(text, origin=f"<bundled:{name}>")


def cmd_reproduce_examples(args) -> int:
    # check the overrides and the outputs of both problems before any work
    overrides = {k: v for k, v in (("theta", args.theta), ("grid_n", args.grid)) if v is not None}
    problems = {name: dataclasses.replace(bundled_problem(name), **overrides)
                for name in ("example_a", "example_b")}
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    out_paths = {name: Path(args.out_dir, f"{name}.solution.csv") for name in problems}
    _check_output_paths(*out_paths.values())
    exit_code = EXIT_OK
    for name, problem in problems.items():
        print(f"=== {name}: f = {problem.f.source}, a = {problem.a.source} ===")
        h1h2, ctx, hyp_report = _analyze_problem(problem)
        outcome, code = _solve_problem(problem, h1h2, ctx, None, out_paths[name])
        report = outcome["report"]

        # contrast the certified criterion with the computed fixed point
        certificates = (hyp_report.f0_certificate, hyp_report.finf_certificate)
        applicable = any(cert is not None for cert in certificates)
        ratio_sup = max(r for _, r in hyp_report.f0_estimate.samples + hyp_report.finf_estimate.samples)
        contraction = ratio_sup * (1.0 / 72.0) / (1.0 - ctx.alpha)
        print(f"criterion_certified = {_fmt(applicable)}")
        print(f"computed_fixed_point_norm = {_fmt(report.solution.sup_norm())}")
        if contraction < 1.0 and report.trivial:
            print(
                "note: a certified criterion asserts existence of a positive solution, "
                "while the computed fixed point is trivial. With f(u)/u <= "
                f"{_fmt(ratio_sup)} on the probe grid, every fixed point obeys "
                f"||u|| <= {_fmt(contraction)} * ||u||, so the iteration can only "
                "reach u = 0; both facts are reported here without adjudication."
            )
        print()
        exit_code = exit_code or code
    return exit_code


# ---------------------------------------------------------------------------


def _theta_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad theta list {text!r}") from None
    if not values or not all(0.0 < t < 0.5 for t in values):
        raise argparse.ArgumentTypeError("thetas must lie in (0, 1/2)")
    return values


def _lemma_grid(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if not 1 <= value <= _MAX_LEMMA_GRID:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {_MAX_LEMMA_GRID}] (the checks build dense "
            f"(grid + 1)^2 arrays), got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_PARSE (argparse's own 2 is EXIT_HYPOTHESIS);
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beambvp",
        description="Solve and verify a fourth-order beam problem with an "
        "integral boundary condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify-lemmas", help="grid checks of the kernel inequalities")
    p_verify.add_argument("--theta", type=_theta_list, default=None,
                          help="comma-separated thetas in (0, 1/2)")
    p_verify.add_argument("--grid", type=_lemma_grid, default=200,
                          help=f"grid intervals, at most {_MAX_LEMMA_GRID} (default 200)")
    p_verify.add_argument("--report", default=None, help="optional CSV report path")
    p_verify.set_defaults(func=cmd_verify_lemmas)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--u0", default=None, help="initial guess: 'zero' or 'constant <c>'")
    p_solve.add_argument("--out", default=None, help="solution CSV path")
    p_solve.add_argument("--plot-data", default=None, help="optional (t, u) CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_analyze = sub.add_parser("analyze", help="growth analysis of a problem file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--out", default=None, help="optional report path")
    p_analyze.set_defaults(func=cmd_analyze)

    p_repro = sub.add_parser("reproduce-examples", help="run the bundled example problems")
    p_repro.add_argument("--theta", type=float, default=None)
    p_repro.add_argument("--grid", type=int, default=None)
    p_repro.add_argument("--out-dir", default=".", help="directory for CSV output")
    p_repro.set_defaults(func=cmd_reproduce_examples)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ProblemError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
