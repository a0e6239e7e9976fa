"""The vectorized CSV writer against C's ``%.17g``, cell by cell."""

import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import beambvp
from beambvp import cli, csvtext, kernel, solver
from test_cli import CSV_VALUES

SRC = Path(beambvp.__file__).resolve().parent.parent


def reference(table):
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ((line * len(table)) % tuple(table.ravel().tolist())).encode()


def assert_like_percent(table):
    text = b"".join(csvtext.table_chunks(table))
    if text != reference(table):
        got, want = text.split(b"\n"), reference(table).split(b"\n")
        row = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"row {row} {table[row].tolist()!r}: {got[row]!r} != {want[row]!r}")


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        both = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def as_table(values, cols=4):
    values = np.asarray(values, dtype=float)
    return np.resize(values, (-(-values.size // cols), cols))


def test_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, size=2**20, dtype=np.uint64)
    assert np.unique(bits >> 52).size == 4096  # every exponent, both signs
    assert_like_percent(bits.view(np.float64).reshape(-1, 4))


def test_special_values_and_subnormals():
    subnormals = np.concatenate([5e-324 * 2.0 ** np.arange(52), [2.225073858507201e-308],
                                 np.random.default_rng(7).integers(1, 2**52, 200).view(np.float64)])
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, *CSV_VALUES]
    assert_like_percent(as_table(np.concatenate([specials, subnormals, -subnormals])))
    # the extremes of the finite doubles get their digits without %
    extremes = np.array([4.96e305, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    assert csvtext._digits(np.concatenate([extremes, -extremes]))[0].all()


def test_power_ladders_and_their_neighbours():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_like_percent(as_table(with_neighbours(np.concatenate([tens, twos]))))


def test_carries_and_notation_switch_points():
    values = [np.nextafter(1e-4, 0), np.nextafter(1e16, 0), np.nextafter(1e17, 0),
              1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0,
              9.99999999999999999e22, 0.099999999999999999, 9.9999999999999998e99]
    assert_like_percent(as_table(with_neighbours(values)))
    assert b"".join(csvtext.table_chunks(np.array([[np.nextafter(1e-4, 0), np.nextafter(1e16, 0)]]))) \
        == b"9.9999999999999991e-05,9999999999999998\n"


def test_exact_ties_round_half_even():
    assert b"".join(csvtext.table_chunks(np.array([[1234567890123456.25]]))) == b"1234567890123456.2\n"
    rng = np.random.default_rng(3)
    ties = []
    for j in range(2, 25):  # m / 2**j with exactly 18 significant digits, the last a 5
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [(int(m) | 1) / 2**j for m in rng.integers(low, high - 1, 20)]
    ties = [t for t in ties if len(Decimal(t).as_tuple().digits) == 18]
    assert len(ties) > 300
    assert_like_percent(as_table(with_neighbours(ties)))


@pytest.mark.parametrize("cols", [2, 4])
def test_tables_across_chunks(cols):
    rows = 2 * (csvtext.CHUNK // cols) + 7
    table = np.random.default_rng(cols).normal(size=(rows, cols)) * 10.0 ** np.arange(-6, 6, 12 / cols)
    table[::5, 0] = np.nan
    table[3::7, -1] = 0.0
    assert_like_percent(table)
    assert_like_percent(np.column_stack([table, table])[:, ::2])  # non-contiguous
    assert_like_percent(np.empty((0, cols)))


def test_solve_table_stays_on_the_fast_path():
    problem = cli.parse_problem("f = 3.1*u*exp(-1.2*u) + 0.4\na = 0.45*t\ngrid_n = 1600\n")
    ctx = kernel.make_context(problem.a, theta=problem.theta, quad=problem.quad)
    report = solver.picard_solve(problem.f, ctx, problem.config())
    rows = cli._solution_csv_rows(report.solution, problem.f, ctx)
    cells = rows.ravel()
    # only the residual's four nan ends lack digits, and they take no % either
    assert np.array_equal(~csvtext._digits(cells)[0], np.isnan(cells))
    assert np.isnan(cells).sum() == 4
    assert_like_percent(rows)


def test_tables_are_built_on_first_use():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import beambvp.cli;"
            "from beambvp import csvtext as c;"
            "print(c._powers.cache_info().currsize, c._tables.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.split() == ["0", "0"]
