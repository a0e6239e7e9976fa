"""Command-line front end.

Subcommands:

* ``verify-lemmas``: exact proofs of the kernel inequalities plus cone
  checks on random nonnegative loads; exit 0 iff everything holds.
* ``solve FILE``: Picard solve cross-checked against the collocation
  oracle; writes a solution CSV and prints a summary block.
* ``analyze FILE``: growth-limit estimates and existence-criterion
  certificates for the problem's nonlinearity.
* ``reproduce-examples``: runs analyze + solve for the two bundled
  example problems and prints a combined report.

Exit codes: 0 ok, 1 lemma violation, 2 hypothesis violation, 3 parse or
usage error (an unreadable input or unwritable output included), 4 solver
non-convergence, or a converged Picard solve and oracle that disagree or
whose oracle error cannot be measured (the agreement gate fails closed).

Problem files are flat ``key = value`` text with ``#`` comments; keys
are f, a, theta, grid_n, quad_panels, tol, max_iter, u0.  All reals in
CSV output carry 17 significant digits and reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bernstein, csvtext, hypotheses, kernel, solver
from .errors import HypothesisViolation
from .exprlang import ExpressionFn, ExprSyntaxError, parse
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
_CONE_N = 400  # intervals of the operator that each cone check applies


class ProblemError(ValueError):
    """Malformed problem file or command-line value (unknown key, bad
    literal, missing field, value out of range)."""


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem with every default.  theta is checked here,
    quad_panels by the QuadratureSettings and the solve settings by the
    SolveConfig built from them."""

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
        _ = self.quad, self.config()  # each raises ProblemError on a bad field

    @property
    def quad(self) -> QuadratureSettings:
        return _settings(QuadratureSettings, panels=self.quad_panels)

    def config(self, u0_override: Optional[str] = None) -> SolveConfig:
        u0 = self.u0 if u0_override is None else parse_u0(u0_override)
        return _settings(SolveConfig, n=self.grid_n, tol=self.tol, max_iter=self.max_iter, u0=u0)


def _settings(cls, **fields):
    """cls(**fields), with the ValueError of its range checks as a ProblemError."""
    try:
        return cls(**fields)
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _check_output_paths(*paths: str | Path | None, source: str | None = None) -> None:
    """Fail before any work when an output is a directory or a symbolic-link
    loop, lies in no writable directory, or names the same file as the input
    ``source`` or as another output.  Paths resolve with os.path.realpath,
    which stops at a loop where Path.resolve raises before Python 3.13."""
    if not any(paths):
        return  # no output, so nothing to compare the input with
    claimed = {Path(os.path.realpath(source)): f"input {source}"} if source else {}
    for path in filter(None, paths):
        target = Path(os.path.realpath(path))
        if target in claimed:
            raise OSError(f"{path}: same file as the {claimed[target]}")
        claimed[target] = f"output {path}"
        parent = Path(path).parent
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        if target.is_symlink():  # realpath left a loop unresolved
            raise OSError(f"{path}: too many levels of symbolic links")
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise OSError(f"{path}: {parent} is not a writable directory")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write float rows, every cell as C's %.17g writes it."""
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        handle.writelines(csvtext.table_chunks(np.asarray(rows, dtype=float)))


# ---------------------------------------------------------------------------
# verify-lemmas


def _kernel_proofs(thetas: Sequence[float]) -> list[dict]:
    """Exact proofs of G >= 0, theta^3 g <= G <= g on [theta, 1 - theta] x [0, 1]
    with theta taken exactly, and G(1, s) = g(s) as -(G(1, s) - g(s))^2 >= 0."""
    g, prove = kernel.g_envelope, bernstein.prove
    proofs = [("nonnegativity", None, prove(lambda G, t, s: G, 0, 1))]
    for theta in thetas:
        th = Fraction(theta)
        proofs += [("lower-bound", theta, prove(lambda G, t, s: G - th**3 * g(s), th, 1 - th)),
                   ("upper-bound", theta, prove(lambda G, t, s: g(s) - G, th, 1 - th))]
    proofs.append(("boundary-identity", None, prove(lambda G, t, s: -(G - g(s)) ** 2, 1, 1)))
    return [dict(check=check, theta=theta, value=float(lower), limit=0.0, ok=verdict == "proven",
                 verdict=verdict, t=where and float(where[0]), s=where and float(where[1]))
            for check, theta, (verdict, lower, where) in proofs]


def _random_nonneg_poly(rng: np.random.Generator) -> np.ndarray:
    """Coefficients of a quartic >= 0.05 on [0, 1]."""
    coeffs = rng.uniform(-1.0, 1.0, 5)
    xs = np.linspace(0.0, 1.0, 512)
    low = float(np.min(np.polynomial.polynomial.polyval(xs, coeffs)))
    coeffs[0] += 0.05 - low
    return coeffs


def _cone_checks(thetas: Sequence[float]) -> list[dict]:
    """Lemma check: solutions of the linear problem for random nonnegative
    loads stay nonnegative and satisfy the cone inequality."""
    rng = np.random.default_rng(_RNG_SEED)
    a = parse("t^2", "t")
    results = []
    loads = [_random_nonneg_poly(rng) for _ in range(20)]
    for theta in thetas:
        ctx = kernel.make_context(a, theta=theta)
        op = operator_matrix(ctx, _CONE_N)
        worst_margin, worst_min, worst_case = np.inf, np.inf, -1
        for case, coeffs in enumerate(loads):
            u = GridFunction(_CONE_N, op(np.polynomial.polynomial.polyval(
                np.linspace(0.0, 1.0, _CONE_N + 1), coeffs)))
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
    results = _kernel_proofs(thetas) + _cone_checks(thetas)
    print(f"kernel inequalities by exact proof, cone checks on {_CONE_N} intervals, "
          f"thetas {', '.join(_fmt(t) for t in thetas)}")
    failed = False
    for res in results:
        status = "ok " if res["ok"] else "FAIL"
        where = f" {res['verdict']}" if "verdict" in res else ""
        if res["t"] is not None:
            where += f" at (t={_fmt(res['t'])}, s={_fmt(res['s'])})"
        if where and res["theta"] is not None:
            where += f" for theta={_fmt(res['theta'])}"
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


def _solution_csv_rows(u: GridFunction, f: ExpressionFn, ctx: KernelContext,
                       report: Optional[solver.SolveReport] = None) -> np.ndarray:
    """Rows t, u, A u and the fourth-difference residual; a column that f or
    A overflows at u stays nan.  With ``report`` (Picard's, for u) the A u and
    residual columns are read from it, and nothing is evaluated."""
    n = u.n
    if report is None:
        fvals, au = solver.apply_A(u.values, f, solver._discretization(ctx, n).op)
        defects = solver._ode_defects(u, fvals, ctx)
    else:
        au, defects = report.au, report.ode_defects
    residual = np.full(n + 1, np.nan)
    if defects is not None:
        residual[2:-2] = defects[2:-2]
    return np.column_stack((u.ts, u.values, np.full(n + 1, np.nan) if au is None else au, residual))


def _solve_problem(problem: ProblemFile, h1h2, u0_override: Optional[str], out_path,
                   plot_path: Optional[str] = None) -> tuple[dict, int]:
    """Solve, cross-check, write the CSVs and print the summary; shared by
    cmd_solve and cmd_reproduce_examples.  Returns the outcome and exit code.

    Where both converge but the oracle's interpolant is more than
    ``solver.agreement_bound`` (or None) from Picard's A f(u) on the grid, it exits 4."""
    ctx, config = h1h2.ctx, problem.config(u0_override)
    report = solver.picard_solve(problem.f, ctx, config)
    colloc = solver.collocation_oracle(problem.f, ctx, config)
    agreement = (np.inf if report.au is None
                 else float(np.max(np.abs(colloc.solution.values - report.au))))
    outcome = dict(h1h2=h1h2, config=config, report=report, colloc=colloc, agreement=agreement)
    rows = _solution_csv_rows(report.solution, problem.f, ctx, report)
    _write_csv(out_path, ["t", "u", "Au", "fourth_diff_residual"], rows)
    if plot_path:
        _write_csv(plot_path, ["t", "u"], rows[:, :2])
    del rows  # its (n + 1) x 4 floats are freed before the gate's apply below
    _print_solve_summary(problem, outcome)
    print(f"solution written to {out_path}")
    if report.status != "converged" or colloc.status != "converged":
        return outcome, EXIT_NONCONVERGENCE
    bound = solver.agreement_bound(report, colloc, problem.f, ctx, agreement)
    if bound is not None and agreement <= bound:
        return outcome, EXIT_OK
    print(f"error: Picard and the collocation oracle found different fixed points: "
          f"oracle_agreement_sup {_fmt(agreement)} exceeds {_fmt(bound)}" if bound is not None else
          f"error: oracle_agreement_sup {_fmt(agreement)} exceeds the stopping rules' error, and "
          "Picard's error is unmeasured: f or A fails at the oracle's solution",
          file=sys.stderr)
    return outcome, EXIT_NONCONVERGENCE


def _print_solve_summary(problem: ProblemFile, outcome: dict) -> None:
    report = outcome["report"]
    colloc = outcome["colloc"]
    h1h2 = outcome["h1h2"]
    ctx: KernelContext = h1h2.ctx
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
        ("norm_bound_at_initial_guess", report.bound_at_start.bound),
        ("collocation_status", colloc.status),
        ("collocation_newton_iterations", colloc.iterations),
        ("collocation_residual", colloc.residual),
        # a diverged method's solution is its last finite iterate, not an answer
        ("oracle_agreement_sup",
         None if "diverged" in (report.status, colloc.status) else outcome["agreement"]),
    ]
    print("\n".join(f"{key} = {_fmt(value)}" for key, value in lines))  # one write, not 27


def cmd_solve(args) -> int:
    out_path = args.out or (Path(args.file).stem + ".solution.csv")
    _check_output_paths(out_path, args.plot_data, source=args.file)
    problem = load_problem(args.file)
    h1h2 = hypotheses.check_h1_h2(problem.f, problem.a, problem.quad, problem.theta)
    return _solve_problem(problem, h1h2, args.u0, out_path, args.plot_data)[1]


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
        f"alpha = {_fmt(h1h2.ctx.alpha)}",
        f"beta = {_fmt(h1h2.ctx.beta)}",
        estimate_line("f0", report.f0_estimate),
        estimate_line("finf", report.finf_estimate),
        f"epsilon = {_fmt(1.0 - h1h2.ctx.alpha)}",  # largest admissible slope
        f"criterion_f0_zero_applicable = {_fmt(cert0 is not None)}",
        f"rho1 = {_fmt(getattr(cert0, 'rho1', None))}",
        f"criterion_finf_zero_applicable = {_fmt(certinf is not None)}",
        *(f"{name} = {_fmt(getattr(certinf, name, None))}"
          for name in ("bounded_case", "L", "eta", "rho2", "sigma", "rho_hat2")),
        f"predecessor_superlinear_applicable = {_fmt(superlinear)}  # needs f0 = 0 and finf divergent",
        f"predecessor_sublinear_applicable = {_fmt(sublinear)}  # needs f0 divergent and finf = 0",
    ]
    print("\n".join(lines))
    return lines


def _analyze_problem(problem: ProblemFile, out_path: Optional[str] = None):
    """Print the analysis block (and write it to ``out_path``); shared by
    cmd_analyze and cmd_reproduce_examples.  Returns (h1h2, report)."""
    h1h2 = hypotheses.check_h1_h2(problem.f, problem.a, problem.quad, problem.theta)
    report = hypotheses.build_report(problem.f, h1h2.ctx, h1h2.f_probe)
    lines = _print_analysis(problem, h1h2, report)
    if out_path:
        Path(out_path).write_text("\n".join(lines) + "\n")
        print(f"analysis written to {out_path}")
    return h1h2, report


def cmd_analyze(args) -> int:
    _check_output_paths(args.out, source=args.file)
    _analyze_problem(load_problem(args.file), args.out)
    return EXIT_OK


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
        h1h2, hyp_report = _analyze_problem(problem)
        outcome, code = _solve_problem(problem, h1h2, None, out_paths[name])
        report = outcome["report"]

        # contrast the certified criterion with the computed fixed point
        certificates = (hyp_report.f0_certificate, hyp_report.finf_certificate)
        applicable = any(cert is not None for cert in certificates)
        ratio_sup = max(r for _, r in hyp_report.f0_estimate.samples + hyp_report.finf_estimate.samples)
        contraction = ratio_sup * (1.0 / 72.0) / (1.0 - h1h2.ctx.alpha)
        print(f"criterion_certified = {_fmt(applicable)}")
        print(f"computed_fixed_point_norm = {_fmt(report.solution.sup_norm())}")
        if contraction < 1.0 and report.trivial:
            print(
                "note: a certified criterion asserts existence of a positive solution, "
                "while the computed fixed point is trivial. The limit-schedule samples "
                f"(u = 1e-12 .. 1e8) give f(u)/u <= {_fmt(ratio_sup)}; if this sampled bound "
                "holds for all u > 0, every fixed point obeys "
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_PARSE (argparse's own 2 is EXIT_HYPOTHESIS);
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args keeps no state in the parser, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beambvp",
        description="Solve and verify a fourth-order beam problem with an "
        "integral boundary condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify-lemmas", help="exact proofs of the kernel inequalities")
    p_verify.add_argument("--theta", type=_theta_list, default=None,
                          help="comma-separated thetas in (0, 1/2)")
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
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
