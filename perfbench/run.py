"""beambvp benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload solve-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, never from an installed copy.  Each
operation starts when the previous one returns.  A run:

1. sets up three times (fresh-interpreter import of the package, input
   generation, and on ``picard-reuse`` the context and n = 3200 operator)
   and reports the median as ``setup_s``;
2. runs one untimed warm-up operation, checks it, and checks a
   deliberately corrupted copy of its output, which must be rejected;
3. runs whole input cycles until ``--seconds`` have passed, checking every
   output independently (see ``checks.py``).

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` cycles alternate between plain and traced operations; the
result line carries the per-layer metrics, averaged per traced
operation, and ``trace.overhead_s`` = traced minus plain median op time.
The last line of standard output is the JSON result; the lines before it
are a readable report and the run environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
WORKLOAD_NAMES = ("solve-fresh", "picard-reuse", "analyze-scan")

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "op.self_s": "s",
    "trace.overhead_s": "s",
    "exprlang.parse.self_s": "s",
    "exprlang.parse.calls": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.calls": "count",
    "kernel.make_context.self_s": "s",
    "kernel.make_context.a_evals": "count",
    "linear.operator_matrix.self_s": "s",
    "linear.operator_matrix.calls": "count",
    "linear.operator_matrix.bytes_computed": "B",
    "solver.apply_A.s_per_call": "s",
    "solver.apply_A.calls": "count",
    "solver.picard_solve.self_s": "s",
    "solver.picard_solve.iterations": "count",
    "solver.collocation_oracle.self_s": "s",
    "solver.collocation_oracle.newton_iterations": "count",
    "solver.collocation_oracle.f_evals": "count",
    "solver.residual_ode.self_s": "s",
    "solver.norm_bound_check.self_s": "s",
    "hypotheses.check_h1_h2.self_s": "s",
    "hypotheses.check_h1_h2.f_evals": "count",
    "hypotheses.check_h1_h2.a_evals": "count",
    "hypotheses.build_report.self_s": "s",
    "hypotheses.build_report.f_evals": "count",
    "cli.solution_csv.self_s": "s",
}


def blas_threads() -> tuple[int, int]:
    """Pin the BLAS pools to one thread (<= nproc); set before numpy loads.

    On a small shared machine a second BLAS thread made the dense operator
    build slower and its timing noisier, so the single client runs single
    threaded."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc, 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check that corrupted outputs fail")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def fresh_import() -> None:
    """Import the package in a fresh interpreter: the import part of set-up."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import beambvp.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, timeout=120)


def measure(bench, seconds: float, traced_mode: bool) -> dict:
    """Closed loop over whole input cycles; returns timings and failures."""
    tracer = Tracer()
    times = {False: [], True: []}
    attempted = failed = with_findings = 0
    reasons: list[str] = []
    findings: list[str] = []

    def run_one(cycle: int, slot: int, traced: bool, timed: bool):
        nonlocal attempted, failed, with_findings
        case = bench.case(cycle, slot)
        attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = bench.op(cycle, slot, tracer if traced else None)
        except Exception:  # an operation that raises is a failed operation
            failed += 1
            reasons.append(f"{case.family} n={case.n}: raised {traceback.format_exc(limit=-3)}")
            return None
        elapsed = time.perf_counter() - t0
        if timed:
            times[traced].append(elapsed)
        failures = bench.check(case, outcome)
        if failures:
            failed += 1
            reasons.append(f"{case.family} {case.f_text!r} a={case.weight.text} n={case.n}: "
                           + "; ".join(failures))
        found = bench.findings(case, outcome)
        if found:
            with_findings += 1
            findings.append(f"{case.family} {case.f_text!r}: " + "; ".join(found))
        return outcome, failures

    # warm-up, plus proof that the gate rejects a corrupted output
    warm = run_one(0, 0, False, False)
    canary_ok = False
    if warm is not None:
        canary_ok, bad = bench.rejects_corruption(bench.case(0, 0), *warm)
        print(f"canary: corrupted output {'rejected' if canary_ok else 'NOT rejected'}: {bad}")

    pool = len(bench.cycles)
    cycle = 0
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= seconds
        if done and cycle >= 1 and (not traced_mode or cycle % 2 == 0):
            break
        # traced mode runs each input cycle twice, plain then traced
        traced = traced_mode and cycle % 2 == 1
        index = (cycle // 2 if traced_mode else cycle) % pool
        for slot in range(len(bench.cycles[index])):
            run_one(index, slot, traced, True)
        cycle += 1
    return dict(times=times, attempted=attempted, failed=failed, reasons=reasons,
                with_findings=with_findings, findings=findings,
                canary_ok=canary_ok, tracer=tracer, cycles=cycle)


def tail_label(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 21:
        return f"no percentile above the median has 10 samples beyond it (n = {n})"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f} = {sorted(samples)[k]:.6g} s (n = {n})"


def run_workload(args) -> int:
    nproc, threads = blas_threads()
    import numpy
    import scipy
    import beambvp

    if Path(beambvp.__file__).resolve().parent != SRC / "beambvp":
        print(f"error: imported beambvp from {beambvp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = dict(nproc=nproc, blas_threads=threads, python=sys.version.split()[0],
               numpy=numpy.__version__, scipy=scipy.__version__, workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = WORKLOADS[args.workload](args.seed)
        setups = []
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            fresh_import()
            bench.setup(tmp / f"round{r}")
            setups.append(time.perf_counter() - t0)
        gc.collect()
        result = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = result["times"][False]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result["canary_ok"] and bool(plain)
    for reason in result["reasons"][:10]:
        print("FAILED " + reason)
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for finding in result["findings"][:5]:
        print("FINDING " + finding)
    print(f"operations with findings (not failures; see README) = "
          f"{result['with_findings']}/{attempted}")
    print(f"setup rounds (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"plain ops: {len(plain)} in {result['cycles']} cycles; tail {tail_label(plain)}")

    if not args.trace:
        values = {
            "op_p50_s": statistics.median(plain),
            "ops_per_s": len(plain) / sum(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced = result["times"][True]
        layers = result["tracer"].summary(len(traced))
        values = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                values[name] = statistics.median(traced) - statistics.median(plain)
            elif name == "solver.apply_A.s_per_call":
                calls = layers.get("solver.apply_A.calls", 0.0)
                values[name] = layers["solver.apply_A.total_s"] / calls if calls else 0.0
            else:
                values[name] = layers.get(name, 0.0)
        print(f"traced ops: {len(traced)}, median {statistics.median(traced):.6g} s; "
              f"plain median {statistics.median(plain):.6g} s")
        units = PER_LAYER
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed, metrics=metrics)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so RSS and caches do not leak across."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print("## summary")
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':<44}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES))
    for m in names + ["failed_frac"]:
        cells = []
        for w in WORKLOAD_NAMES:
            r = results[w]
            v = r["failed"] / r["attempted"] if m == "failed_frac" else r["metrics"][m]["value"]
            cells.append(f"{v:>16.6g}")
        print(f"{m:<44}" + "".join(cells))
    print(json.dumps(dict(
        correct=all(r["correct"] for r in results.values()),
        attempted=sum(r["attempted"] for r in results.values()),
        failed=sum(r["failed"] for r in results.values()),
        metrics={f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    )))
    return 0


def selftest() -> int:
    """Each workload's checker must reject its corrupted output, and the
    metric lists must match BENCHMARK.json."""
    blas_threads()
    from workloads import WORKLOADS

    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            print(f"selftest: BENCHMARK.json {key} differs from run.py")
            ok = False
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, cls in WORKLOADS.items():
            bench = cls(seed=0)
            bench.setup(tmp / name, pool_cycles=1)
            case = bench.case(0, 0)
            outcome = bench.op(0, 0, None)
            clean = bench.check(case, outcome)
            caught, bad = bench.rejects_corruption(case, outcome, clean)
            verdict = "ok" if caught else "FAIL"
            ok = ok and caught
            print(f"selftest {name}: clean output failures {clean}; corrupted output "
                  f"failures {bad} -> {verdict}")
        # the Case-1 bound gate, on the hump slot with f(0) = 0 (always Case 1)
        import checks

        bench = WORKLOADS["analyze-scan"](seed=0)
        bench.setup(tmp / "case1", pool_cycles=1)
        case = bench.case(0, 3)
        code, out = bench.op(0, 3, None)
        clean = checks.check_analyze(case, code, out)
        bad = checks.check_analyze(case, code, checks.corrupt_bound(out))
        caught = ("bounded_case = true" in out and not clean
                  and any(f.startswith("Case 1") for f in bad))
        ok = ok and caught
        print(f"selftest analyze-scan Case 1: clean output failures {clean}; L lowered by "
              f"1e-4 failures {bad} -> {'ok' if caught else 'FAIL'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: PASS" if ok else "selftest: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "beambvp" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'beambvp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
