"""Independent output checks.

Each checker returns a list of failure strings; an empty list means the
output passed.  The checks use only the generator's closed forms, numpy
twins of f and a, and scipy's cumulative Simpson rule, never the
program's own operator or residual code.  ``corrupt_*`` helpers make one
deliberately wrong copy of an output per workload, so a run can show that
its gate rejects bad data and does not pass vacuously.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_simpson

from inputs import Case

CSV_HEADER = "t,u,Au,fourth_diff_residual"
BC_TOL = 1e-8  # boundary-condition defect bound used by the project's tests
TRIVIAL = 1e-8  # sup-norm below which the program calls a fixed point trivial
QUAD_ALLOWANCE = 1e-10  # independent-quadrature allowance on the fixed-point defect
LIMIT_RTOL = 1e-4  # the limit estimator's own convergence tolerance
ROUNDING = 1e-12  # relative slack for twin-versus-interpreter rounding
BOUNDEDNESS_CAP = 1e6  # largest u the program's Case-1 probe covers
PROBE_POINTS = 10**4  # points of that probe's log scan
L_LOOSENESS = 1e-5  # L may exceed sup f by its own 1e-6 margin, not more


def parse_summary(text: str) -> dict[str, str]:
    """`key = value` lines of a CLI summary; trailing `# ...` dropped."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.split("  #", 1)[0].strip()
    return out


def interior_tolerance(n: int, u_norm: float) -> float:
    """README: max(1e-6, 100 * eps * n^4 * ||u||)."""
    return max(1e-6, 100.0 * np.finfo(float).eps * float(n) ** 4 * u_norm)


def simpson_weights(n: int) -> np.ndarray:
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w / (3.0 * n)


def ode_defects(case: Case, u: np.ndarray) -> tuple[float, float]:
    """(max |D4 u + f(u)| over interior points, max boundary-condition defect)."""
    n = len(u) - 1
    h = 1.0 / n
    ts = np.linspace(0.0, 1.0, n + 1)
    d4 = (u[:-4] - 4.0 * u[1:-3] + 6.0 * u[2:-2] - 4.0 * u[3:-1] + u[4:]) / h**4
    interior = float(np.max(np.abs(d4 + case.f_twin(np.maximum(u[2:-2], 0.0)))))
    # one-sided third-order stencils for u'(0), u'(1) and u''(0)
    d1 = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0
    d2 = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
    nonlocal_defect = u[0] - np.dot(simpson_weights(n), case.weight.twin(ts) * u)
    bc = max(
        abs(np.dot(d1, u[:4])) / h,
        abs(np.dot(d1, u[-1:-5:-1])) / h,
        abs(np.dot(d2, u[:5])) / h**2,
        abs(nonlocal_defect),
    )
    return interior, float(bc)


def apply_operator(case: Case, u: np.ndarray) -> np.ndarray:
    """(A u)(t) = w(t) + (1/(1-alpha)) * integral a w, from the closed form of G.

    w(t) = integral G(t, s) y(s) ds
         = (t^3 * integral (1-s)^2 y - integral_0^t (t-s)^3 y) / 6
    with y = f(u); the prefix moments come from cumulative Simpson.
    """
    n = len(u) - 1
    ts = np.linspace(0.0, 1.0, n + 1)
    y = case.f_twin(np.maximum(u, 0.0))
    m0, m1, m2, m3 = (cumulative_simpson(ts**k * y, x=ts, initial=0.0) for k in range(4))
    total = cumulative_simpson((1.0 - ts) ** 2 * y, x=ts, initial=0.0)[-1]
    w = (ts**3 * total - (ts**3 * m0 - 3.0 * ts**2 * m1 + 3.0 * ts * m2 - m3)) / 6.0
    alpha = case.weight.alpha
    return w + np.dot(simpson_weights(n), case.weight.twin(ts) * w) / (1.0 - alpha)


def check_solve(case: Case, exit_code: int, stdout: str, csv_path: Path) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    summary = parse_summary(stdout)
    for key in ("status", "collocation_status"):
        if summary.get(key) != "converged":
            failures.append(f"{key} = {summary.get(key)}")
    try:
        lines = Path(csv_path).read_text().splitlines()
    except OSError as exc:
        return failures + [f"csv unreadable: {exc}"]
    if not lines or lines[0] != CSV_HEADER:
        return failures + [f"csv header {lines[:1]}"]
    if len(lines) - 1 != case.n + 1:
        return failures + [f"csv has {len(lines) - 1} rows, expected {case.n + 1}"]
    try:
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return failures + [f"csv cell not a number: {exc}"]
    if data.shape != (case.n + 1, 4):
        return failures + [f"csv shape {data.shape}"]
    t, u = data[:, 0], data[:, 1]
    if np.max(np.abs(t - np.arange(case.n + 1) / case.n)) > 1e-15:
        failures.append("csv t column is not the uniform grid")
    if not np.all(np.isfinite(u)):
        return failures + ["csv u column not finite"]
    u_norm = float(np.max(np.abs(u)))
    interior, bc = ode_defects(case, u)
    tol = interior_tolerance(case.n, u_norm)
    if not interior <= tol:
        failures.append(f"D4 residual {interior:.3e} > {tol:.3e}")
    if not bc <= BC_TOL:
        failures.append(f"boundary defect {bc:.3e} > {BC_TOL:.0e}")
    if case.d > 0 and not (u_norm > TRIVIAL and summary.get("trivial_fixed_point") == "false"):
        failures.append(f"f(0) > 0 but the solution is trivial (||u|| = {u_norm:.3e})")
    return failures


def check_picard(case: Case, report, bound_check, tol: float) -> list[str]:
    failures = []
    if report.status != "converged":
        failures.append(f"status = {report.status}")
    u = np.asarray(report.solution.values, dtype=float)
    if len(u) != case.n + 1 or not np.all(np.isfinite(u)):
        return failures + ["solution has the wrong size or is not finite"]
    au = apply_operator(case, u)
    defect = float(np.max(np.abs(u - au)))
    # u_k+1 = A u_k stops with ||u_k+1 - u_k|| < tol, so ||u - A u|| < q tol
    limit = case.q * tol + QUAD_ALLOWANCE
    if not defect <= limit:
        failures.append(f"fixed-point defect {defect:.3e} > {limit:.3e}")
    u_norm = float(np.max(np.abs(u)))
    if case.d > 0 and not u_norm > TRIVIAL:
        failures.append(f"f(0) > 0 but the solution is trivial (||u|| = {u_norm:.3e})")
    ts = np.linspace(0.0, 1.0, case.n + 1)
    g = ts * (1.0 - ts) ** 2 / 6.0
    bound = np.dot(simpson_weights(case.n), g * case.f_twin(np.maximum(u, 0.0)))
    bound /= 1.0 - case.weight.alpha
    if not bound_check.holds or float(np.max(np.abs(au))) > bound * (1 + ROUNDING) + QUAD_ALLOWANCE:
        failures.append(f"norm bound fails: ||Au|| {np.max(np.abs(au)):.6e} vs {bound:.6e}")
    return failures


_LIMIT_RE = re.compile(r"^(?P<value>\S+) \((?P<flag>converged|not converged)\)$")


def _check_limit(name: str, line: str | None, analytic: float) -> list[str]:
    if line is None:
        return [f"{name} missing"]
    if math.isinf(analytic):
        return [] if line == "divergent" else [f"{name} = {line}, analytic limit is infinite"]
    m = _LIMIT_RE.match(line)
    if not m or m["flag"] != "converged":
        return [f"{name} = {line}, analytic limit {analytic!r}"]
    value = float(m["value"])
    if not abs(value - analytic) <= LIMIT_RTOL * (1.0 + abs(analytic)):
        return [f"{name} = {value!r}, analytic limit {analytic!r}"]
    return []


def check_analyze(case: Case, exit_code: int, stdout: str) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    s = parse_summary(stdout)
    try:
        alpha = float(s["alpha"])
        epsilon = float(s["epsilon"])
    except (KeyError, ValueError):
        return failures + ["alpha or epsilon missing"]
    if not abs(alpha - case.weight.alpha) <= ROUNDING:
        failures.append(f"alpha = {alpha!r}, analytic {case.weight.alpha!r}")
    failures += _check_limit("f0", s.get("f0"), case.f0)
    failures += _check_limit("finf", s.get("finf"), case.finf)
    if s.get("criterion_f0_zero_applicable") == "true":
        rho1 = float(s["rho1"])
        us = np.union1d(np.logspace(-12.0, math.log10(rho1), 20001), np.linspace(0, rho1, 20001)[1:])
        excess = case.f_twin(us) - epsilon * us
        worst = int(np.argmax(excess))
        if excess[worst] > ROUNDING * max(1.0, epsilon * us[worst]):
            failures.append(
                f"f(u) > epsilon u at u = {us[worst]!r} <= rho1 = {rho1!r} (by {excess[worst]:.3e})"
            )
    if s.get("bounded_case") == "true":
        # certify_finf_zero documents L as a bound on the points it probes
        # (u = 0 and its 10^4-point log scan of (0, 1e6]); check that, and
        # that L is no looser than the true supremum allows
        L = float(s["L"])
        probe = np.concatenate([[0.0], np.logspace(-9.0, math.log10(BOUNDEDNESS_CAP), PROBE_POINTS)])
        fp = case.f_twin(probe)
        worst = int(np.argmax(fp))
        if fp[worst] > L * (1.0 + ROUNDING):
            failures.append(f"Case 1 bound L = {L!r} exceeded on the probe grid: "
                            f"f({probe[worst]!r}) = {fp[worst]!r}")
        sup = float(np.max(case.f_twin(_dense_bounded_grid(case))))
        if L > sup * (1.0 + L_LOOSENESS):
            failures.append(f"Case 1 bound L = {L!r} looser than sup f = {sup!r}")
    return failures


def _dense_bounded_grid(case: Case) -> np.ndarray:
    us = np.concatenate([[0.0], np.logspace(-9.0, math.log10(BOUNDEDNESS_CAP), 200001)])
    return np.append(us, case.argmax) if math.isfinite(case.argmax) else us


def analyze_findings(case: Case, stdout: str) -> list[str]:
    """Defects of an analyze output that lie outside what the program
    documents, so they are reported but do not fail the operation.

    Where Case 1 is reported, L is meant to bound f on all of [0, 1e6];
    the program only promises it on its probe points, and for f with an
    interior peak between two of them the true maximum can exceed L."""
    s = parse_summary(stdout)
    if s.get("bounded_case") != "true":
        return []
    L = float(s["L"])
    us = _dense_bounded_grid(case)
    fu = case.f_twin(us)
    worst = int(np.argmax(fu))
    if fu[worst] <= L * (1.0 + ROUNDING):
        return []
    return [f"Case 1 bound L = {L!r} exceeded off the probe grid: f({us[worst]!r}) = "
            f"{fu[worst]!r} (relative excess {fu[worst] / L - 1.0:.3e})"]


# --- deliberately corrupted outputs ---------------------------------------


def corrupt_csv(csv_path: Path, out_path: Path) -> Path:
    """Copy of a solution CSV with one interior u value moved by 1e-6 ||u||."""
    lines = Path(csv_path).read_text().splitlines()
    row = len(lines) // 3
    cells = lines[row].split(",")
    value = float(cells[1])
    cells[1] = repr(value + 1e-6 * max(1.0, abs(value)))
    lines[row] = ",".join(cells)
    Path(out_path).write_text("\n".join(lines) + "\n")
    return Path(out_path)


def corrupt_status(report):
    return dataclasses.replace(report, status="max_iter")


def corrupt_limit(stdout: str) -> str:
    """Analyze output whose f0 line names a limit one unit off."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("f0 = "):
            value = line[len("f0 = "):]
            m = _LIMIT_RE.match(value)
            wrong = float(m["value"]) + 1.0 if m else 0.5
            line = f"f0 = {wrong!r} (converged)"
        out.append(line)
    return "\n".join(out) + "\n"


def corrupt_bound(stdout: str) -> str:
    """Analyze output whose Case-1 bound L is 1e-4 (relative) too small."""
    return re.sub(r"^L = (\S+)", lambda m: f"L = {float(m[1]) * (1.0 - 1e-4)!r}",
                  stdout, flags=re.M)
