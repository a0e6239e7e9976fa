"""The three workloads: set-up, one operation (plain or traced), checks.

Plain operations call the program exactly as a user does: ``cli.main``
for ``solve`` and ``analyze``, the library API for Picard reuse.  Traced
operations rebuild the same ``cli`` pipelines from the same public calls
in the same order, with a span around each call; ``operator_matrix`` is
called explicitly before ``picard_solve`` so the build and the iterations
get separate spans.  The CSV writer has no public entry point, so the
traced solve times ``cli._solution_csv_rows`` and ``cli._write_csv``
under one span, ``cli.solution_csv``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

from beambvp import cli, exprlang, hypotheses, kernel, linear, quadrature, solver
from beambvp.solver import SolveConfig

import checks
import inputs
from tracing import CountingFn, Tracer

POOL_CYCLES = 32  # distinct input cycles generated per run; reused round-robin

# calls the program makes internally, timed by wrapping the module attribute
INTERNAL_CALLS = (
    (cli, "parse", "exprlang.parse"),
    (quadrature, "integrate", "quadrature.integrate"),
    (solver, "apply_A", "solver.apply_A"),
    (solver, "residual_ode", "solver.residual_ode"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_pool(workdir: Path, cycles) -> list[list[Path]]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cycle in enumerate(cycles):
        row = []
        for j, case in enumerate(cycle):
            path = workdir / f"c{i:02d}_{j}.problem"
            path.write_text(case.problem_text())
            row.append(path)
        paths.append(row)
    return paths


class Workload:
    name = ""
    canary_tag = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir: Path | None = None
        self.cycles: list[list[inputs.Case]] = []

    def setup(self, round_dir: Path, pool_cycles: int = POOL_CYCLES) -> None:
        """Generate the inputs (and, where the workload reuses them, the
        context and operator).  Timed as set-up; may run several times,
        each round replacing the previous one's files."""
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir = round_dir
        self.cycles = inputs.make_schedule(self.name, self.seed, pool_cycles)
        self.paths = _write_pool(round_dir, self.cycles)

    def op(self, cycle: int, slot: int, tracer: Tracer | None):
        raise NotImplementedError

    def check(self, case: inputs.Case, outcome) -> list[str]:
        raise NotImplementedError

    def canary(self, case: inputs.Case, outcome) -> list[str]:
        """Failures the checker reports on a corrupted copy of `outcome`."""
        raise NotImplementedError

    def findings(self, case: inputs.Case, outcome) -> list[str]:
        """Reported defects outside the program's documented guarantees."""
        return []

    def rejects_corruption(self, case, outcome, clean: list[str]) -> tuple[bool, list[str]]:
        """Whether the corrupted copy fails on the tagged check that the
        clean output passed; also the corrupted copy's failures."""
        def tagged(failures):
            return any(f.startswith(self.canary_tag) for f in failures)

        bad = self.canary(case, outcome)
        return tagged(bad) and not tagged(clean), bad

    def case(self, cycle: int, slot: int) -> inputs.Case:
        return self.cycles[cycle][slot]


class SolveFresh(Workload):
    """`beambvp solve FILE --out CSV`; each command builds its own context."""

    name = "solve-fresh"
    canary_tag = "D4 residual"

    def op(self, cycle, slot, tracer):
        path = self.paths[cycle][slot]
        csv_path = self.workdir / "solution.csv"
        if tracer is None:
            code, out = run_cli(["solve", str(path), "--out", str(csv_path)])
        else:
            code, out = traced_solve(tracer, path, csv_path)
        return code, out, csv_path

    def check(self, case, outcome):
        code, out, csv_path = outcome
        return checks.check_solve(case, code, out, csv_path)

    def canary(self, case, outcome):
        code, out, csv_path = outcome
        bad = checks.corrupt_csv(csv_path, self.workdir / "corrupt.csv")
        return checks.check_solve(case, code, out, bad)


class PicardReuse(Workload):
    """Library use: one context and operator, many Picard solves on it."""

    name = "picard-reuse"
    canary_tag = "status ="

    def setup(self, round_dir, pool_cycles=POOL_CYCLES):
        self.ctx = None  # let the previous round's operator go before building
        super().setup(round_dir, pool_cycles)
        weight = self.cycles[0][0].weight
        self.ctx = kernel.make_context(exprlang.parse(weight.text, "t"), theta=inputs.THETA)
        linear.operator_matrix(self.ctx, inputs.PICARD_N)
        self.config = SolveConfig(
            n=inputs.PICARD_N, tol=inputs.TOL, max_iter=inputs.MAX_ITER, u0=1.0
        )

    def op(self, cycle, slot, tracer):
        text = self.case(cycle, slot).f_text
        if tracer is None:
            f = exprlang.parse(text, "u")
            report = solver.picard_solve(f, self.ctx, self.config)
            return report, solver.norm_bound_check(report.solution, f, self.ctx)
        with tracer.span("op"), tracer.patched(INTERNAL_CALLS):
            with tracer.span("exprlang.parse"):
                f = CountingFn(exprlang.parse(text, "u"), "f_evals", tracer)
            with tracer.span("solver.picard_solve"):
                report = solver.picard_solve(f, self.ctx, self.config)
                tracer.count("iterations", report.iterations)
            with tracer.span("solver.norm_bound_check"):
                bound = solver.norm_bound_check(report.solution, f, self.ctx)
        return report, bound

    def check(self, case, outcome):
        report, bound = outcome
        return checks.check_picard(case, report, bound, self.config.tol)

    def canary(self, case, outcome):
        report, bound = outcome
        return checks.check_picard(case, checks.corrupt_status(report), bound, self.config.tol)


class AnalyzeScan(Workload):
    """`beambvp analyze FILE`: hypothesis scans, no operator, no Newton."""

    name = "analyze-scan"
    canary_tag = "f0 "

    def op(self, cycle, slot, tracer):
        path = self.paths[cycle][slot]
        if tracer is None:
            return run_cli(["analyze", str(path)])
        return traced_analyze(tracer, path)

    def check(self, case, outcome):
        code, out = outcome
        return checks.check_analyze(case, code, out)

    def canary(self, case, outcome):
        code, out = outcome
        return checks.check_analyze(case, code, checks.corrupt_limit(out))

    def findings(self, case, outcome):
        code, out = outcome
        return checks.analyze_findings(case, out)


WORKLOADS = {w.name: w for w in (SolveFresh, PicardReuse, AnalyzeScan)}


# --- traced rebuilds of the cli pipelines ---------------------------------


def _load(tracer: Tracer, path: Path):
    with tracer.span("cli.load_problem"):
        problem = cli.load_problem(str(path))
    f = CountingFn(problem.f, "f_evals", tracer)
    a = CountingFn(problem.a, "a_evals", tracer)
    return problem, f, a


def traced_solve(tracer: Tracer, path: Path, csv_path: Path) -> tuple[int, str]:
    """cli.cmd_solve, one span per public call."""
    out = io.StringIO()
    with tracer.span("op"), tracer.patched(INTERNAL_CALLS), contextlib.redirect_stdout(out):
        problem, f, a = _load(tracer, path)
        with tracer.span("hypotheses.check_h1_h2"):
            h1h2 = hypotheses.check_h1_h2(f, a, problem.quad)
        with tracer.span("kernel.make_context"):
            ctx = kernel.make_context(a, theta=problem.theta, quad=problem.quad)
        config = problem.config(None)
        with tracer.span("linear.operator_matrix"):
            linear.operator_matrix(ctx, config.n)
            tracer.count("bytes_computed", 8 * (config.n + 1) ** 2)
        with tracer.span("solver.picard_solve"):
            report = solver.picard_solve(f, ctx, config)
            tracer.count("iterations", report.iterations)
        with tracer.span("solver.collocation_oracle"):
            colloc = solver.collocation_oracle(f, ctx, config)
            tracer.count("newton_iterations", colloc.iterations)
        agreement = float(np.max(np.abs(report.solution.values - colloc.solution.values)))
        with tracer.span("solver.norm_bound_check"):
            bound_at_start = solver.norm_bound_check(config.initial_guess(), f, ctx)
        outcome = dict(
            h1h2=h1h2, ctx=ctx, config=config, report=report, colloc=colloc,
            agreement=agreement, bound_at_start=bound_at_start,
        )
        with tracer.span("cli.solution_csv"):
            rows = cli._solution_csv_rows(report.solution, f, ctx)
        with tracer.span("cli.solution_csv"):
            cli._write_csv(str(csv_path), ["t", "u", "Au", "fourth_diff_residual"], rows)
        cli._print_solve_summary(problem, outcome)
        print(f"solution written to {csv_path}")
    if not (h1h2.h1 and h1h2.h2):
        return cli.EXIT_HYPOTHESIS, out.getvalue()
    if report.status != "converged" or colloc.status != "converged":
        return cli.EXIT_NONCONVERGENCE, out.getvalue()
    return cli.EXIT_OK, out.getvalue()


def traced_analyze(tracer: Tracer, path: Path) -> tuple[int, str]:
    """cli.cmd_analyze, one span per public call."""
    out = io.StringIO()
    with tracer.span("op"), tracer.patched(INTERNAL_CALLS), contextlib.redirect_stdout(out):
        problem, f, a = _load(tracer, path)
        with tracer.span("hypotheses.check_h1_h2"):
            h1h2 = hypotheses.check_h1_h2(f, a, problem.quad)
        if not h1h2.h2:
            return cli.EXIT_HYPOTHESIS, out.getvalue()
        with tracer.span("kernel.make_context"):
            ctx = kernel.make_context(a, theta=problem.theta, quad=problem.quad)
        with tracer.span("hypotheses.build_report"):
            report = hypotheses.build_report(f, ctx)
        cli._print_analysis(problem, h1h2, report)
    return (cli.EXIT_OK if h1h2.h1 else cli.EXIT_HYPOTHESIS), out.getvalue()
