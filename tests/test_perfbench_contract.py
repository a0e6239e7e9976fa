"""The benchmark in perfbench/ calls internal names of the program (the CSV
helpers, ProblemFile.config and .quad, module attributes it wraps for
timing).  This runs its traced pipelines once on a small problem so a
change that moves one of those names fails here, not only in the
benchmark, and runs its selftest, which checks that the benchmark's
checkers still reject corrupted outputs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_internal_calls_resolve(workloads):
    for module, attr, _ in workloads.INTERNAL_CALLS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_traced_pipelines_run(workloads, tmp_path):
    from tracing import Tracer

    path = tmp_path / "case.problem"
    path.write_text("f = 0.5*u/(1+u) + 1\na = 0.9*t^2\ngrid_n = 200\nu0 = constant 1\n")
    csv_path = tmp_path / "solution.csv"
    code, out = workloads.traced_solve(Tracer(), path, csv_path)
    assert code == 0, out
    assert len(csv_path.read_text().splitlines()) == 202
    code, out = workloads.traced_analyze(Tracer(), path)
    assert code == 0, out


def test_picard_reuse_round_runs(workloads, tmp_path):
    from tracing import Tracer

    bench = workloads.PicardReuse(seed=1)
    bench.setup(tmp_path / "round", pool_cycles=1)
    for tracer in (None, Tracer()):
        outcome = bench.op(0, 0, tracer)
        assert bench.check(bench.case(0, 0), outcome) == []


def test_selftest_passes():
    # the checkers pass clean outputs and reject each corrupted canary
    leftovers = lambda: set(ROOT.glob(".perfbench-*"))
    before = leftovers()
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selftest: PASS" in run.stdout.splitlines()
    assert leftovers() == before  # its temporary directory is removed
