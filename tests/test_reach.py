"""Every module-level function in the package is reached by some command,
except a short list kept on purpose, each with its reason."""

import importlib
import inspect
import pkgutil
import sys
import time
from importlib import resources

import beambvp
from beambvp import cli

# qualified name -> why it stays although no command enters it
NEVER_ENTERED = {
    "solver.norm_bound_check": "the benchmark's traced solve and picard-reuse call it",
    "solver.residual_ode": "the benchmark traces it; the tests' residual checks call it",
    "kernel.green_matrix": "a reference the tests hold the operator to",
    "kernel.correction_values": "a reference the tests hold the operator's correction to",
    "linear.polynomial_oracle": "the exact solution the tests compare the operator with",
    "quadrature.integrate": "package API, exported from beambvp",
}


def _package_functions() -> dict:
    """{qualified name: function} of the functions each module defines, with
    cached ones unwrapped and their caches cleared so a call enters them."""
    found = {}
    for info in pkgutil.iter_modules(beambvp.__path__):
        module = importlib.import_module(f"beambvp.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):  # functools.cache and lru_cache
                obj.cache_clear()
                obj = obj.__wrapped__
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_commands_enter_every_function_but_the_kept_few(tmp_path, capsys, monkeypatch):
    functions = _package_functions()
    fixtures = [str(resources.files("beambvp.fixtures").joinpath(f"{name}.problem"))
                for name in ("example_a", "example_b")]
    commands = [["verify-lemmas"], ["verify-lemmas", "--theta", "0.1,0.2", "--report", "r.csv"],
                ["reproduce-examples", "--grid", "200", "--out-dir", "repro"]]
    for k, path in enumerate(fixtures):
        commands += [["solve", path, "--out", f"{k}.csv", "--plot-data", f"{k}.plot.csv"],
                     ["analyze", path, "--out", f"{k}.txt"]]
    monkeypatch.chdir(tmp_path)
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    start = time.perf_counter()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert codes == [0] * len(commands)
    never = {name for name, fn in functions.items() if fn.__code__ not in entered}
    assert never == set(NEVER_ENTERED)
    assert elapsed < 1.0
