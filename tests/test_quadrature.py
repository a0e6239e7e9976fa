import math

import numpy as np
import pytest

from beambvp.errors import NumericError
from beambvp.grid import GridFunction
from beambvp.quadrature import (
    DEFAULT_SETTINGS,
    QuadratureSettings,
    Rule,
    grid_weights,
    integrate,
    integrate_grid,
    nodes,
    nodes_weights,
)

RNG = np.random.default_rng(1702)


def test_square_integrates_to_third():
    assert abs(integrate(lambda s: s * s, 0.0, 1.0, DEFAULT_SETTINGS) - 1.0 / 3.0) < 1e-15


def test_constant_integrates_to_one():
    assert integrate(lambda s: 1.0, 0.0, 1.0, DEFAULT_SETTINGS) == pytest.approx(1.0, abs=1e-15)


def test_kernel_envelope_integral():
    value = integrate(lambda s: s * (1.0 - s) ** 2 / 6.0, 0.0, 1.0, DEFAULT_SETTINGS)
    assert abs(value - 1.0 / 72.0) < 1e-15


def test_subinterval_square():
    value = integrate(lambda s: s * s, 0.25, 0.75, DEFAULT_SETTINGS)
    assert abs(value - 13.0 / 96.0) < 1e-15


@pytest.mark.parametrize("rule,tol", [(Rule.SIMPSON, 1e-9), (Rule.GAUSS5, 1e-14)])
def test_rules_agree_on_smooth_integrand(rule, tol):
    settings = QuadratureSettings(rule=rule, panels=50)
    assert integrate(np.exp, 0.0, 1.0, settings) == pytest.approx(math.e - 1.0, abs=tol)


def test_midpoint_second_order():
    settings = QuadratureSettings(rule=Rule.MIDPOINT, panels=200)
    assert integrate(lambda s: s * s, 0.0, 1.0, settings) == pytest.approx(1.0 / 3.0, abs=1e-5)


@pytest.mark.parametrize("panels", [1, 3, 7, 200])
def test_simpson_exact_for_cubics(panels):
    settings = QuadratureSettings(rule=Rule.SIMPSON, panels=panels)
    for _ in range(10):
        coeffs = RNG.uniform(-2.0, 2.0, 4)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        value = integrate(
            lambda s: np.polynomial.polynomial.polyval(s, coeffs), 0.0, 1.0, settings
        )
        assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_gauss5_exact_through_degree_nine():
    settings = QuadratureSettings(rule=Rule.GAUSS5, panels=1)
    value = integrate(lambda s: s**9, 0.0, 1.0, settings)
    assert abs(value - 0.1) < 1e-15


def test_interval_additivity_at_panel_boundary():
    # c = k/P is a panel boundary; sub-integrals use the matching panel counts
    panels, k = 200, 57
    c = k / panels
    full = integrate(np.exp, 0.0, 1.0, QuadratureSettings(panels=panels))
    left = integrate(np.exp, 0.0, c, QuadratureSettings(panels=k))
    right = integrate(np.exp, c, 1.0, QuadratureSettings(panels=panels - k))
    assert abs(full - (left + right)) < 1e-12


def test_simpson_fourth_order_convergence():
    exact = math.e - 1.0
    err4 = abs(integrate(np.exp, 0.0, 1.0, QuadratureSettings(panels=4)) - exact)
    err8 = abs(integrate(np.exp, 0.0, 1.0, QuadratureSettings(panels=8)) - exact)
    assert 12.0 <= err4 / err8 <= 20.0


def test_empty_and_degenerate_intervals():
    assert integrate(math.exp, 0.5, 0.5, DEFAULT_SETTINGS) == 0.0
    with pytest.raises(ValueError):
        integrate(math.exp, 1.0, 0.0, DEFAULT_SETTINGS)


def test_nonfinite_sample_reports_abscissa():
    with pytest.raises(NumericError) as exc:
        integrate(lambda s: np.where(s > 0.5, math.inf, 1.0), 0.0, 1.0, DEFAULT_SETTINGS)
    assert exc.value.where is not None and exc.value.where > 0.5


def test_nodes_weights_consistent_with_integrate():
    xs, ws = nodes_weights(0.25, 0.75, DEFAULT_SETTINGS)
    assert np.all((xs >= 0.25) & (xs <= 0.75))
    assert float(np.dot(ws, xs**2)) == pytest.approx(13.0 / 96.0, abs=1e-14)
    assert len(nodes(0.0, 1.0, DEFAULT_SETTINGS)) == len(xs)


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(panels=0)
    with pytest.raises(ValueError):
        QuadratureSettings(rule="trapeze")


def test_integrate_grid_constant():
    assert integrate_grid(GridFunction.constant(2.5, 100)) == pytest.approx(2.5, abs=1e-14)


def test_integrate_grid_kernel_envelope():
    ts = np.linspace(0.0, 1.0, 2001)
    values = GridFunction(2000, ts * (1.0 - ts) ** 2 / 6.0)
    assert abs(integrate_grid(values) - 1.0 / 72.0) < 1e-10


def test_integrate_grid_square():
    ts = np.linspace(0.0, 1.0, 2001)
    assert abs(integrate_grid(GridFunction(2000, ts**2)) - 1.0 / 3.0) < 1e-10


def test_grid_rule_mismatch():
    odd = GridFunction.constant(1.0, 101)
    with pytest.raises(ValueError):
        integrate_grid(odd, QuadratureSettings(rule=Rule.SIMPSON))
    with pytest.raises(ValueError):
        grid_weights(100, QuadratureSettings(rule=Rule.GAUSS5))


def test_grid_trapezoid_fallback_for_midpoint():
    ts = np.linspace(0.0, 1.0, 201)
    value = integrate_grid(GridFunction(200, ts**2), QuadratureSettings(rule=Rule.MIDPOINT))
    assert value == pytest.approx(1.0 / 3.0, abs=1e-4)
