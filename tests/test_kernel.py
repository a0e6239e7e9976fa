import numpy as np
import pytest

from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.kernel import (
    KernelContext,
    correction_values,
    g_weight,
    green,
    green_matrix,
    make_context,
    modified_kernel,
)

GRID = np.linspace(0.0, 1.0, 201)


def test_green_point_values():
    assert green(0.0, 0.3) == 0.0
    assert green(0.5, 0.5) == pytest.approx(1.0 / 192.0, abs=1e-16)
    assert green(0.75, 0.25) == pytest.approx(115.0 / 6144.0, abs=1e-16)
    assert green(1.0, 0.5) == pytest.approx(1.0 / 48.0, abs=1e-16)


def test_green_domain_checked():
    with pytest.raises(ValueError):
        green(1.2, 0.0)
    with pytest.raises(ValueError):
        green(0.0, -0.1)


def test_g_weight_values():
    assert g_weight(0.0) == 0.0
    assert g_weight(1.0) == 0.0
    assert g_weight(0.5) == pytest.approx(1.0 / 48.0, abs=1e-16)
    with pytest.raises(ValueError):
        g_weight(1.5)
    values = g_weight(np.array([0.0, 0.5, 1.0]))
    assert values.shape == (3,) and values[0] == values[2] == 0.0
    assert values[1] == pytest.approx(1.0 / 48.0, abs=1e-16)
    with pytest.raises(ValueError):
        g_weight(np.array([0.5, 1.5]))


def test_green_nonnegative_on_grid():
    assert float(np.min(green_matrix(GRID, GRID))) >= -1e-14


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_green_two_sided_bound(theta):
    inner = GRID[(GRID >= theta - 1e-12) & (GRID <= 1.0 - theta + 1e-12)]
    gm = green_matrix(inner, GRID)
    envelope = GRID * (1.0 - GRID) ** 2 / 6.0
    assert np.all(gm >= theta**3 * envelope[None, :] - 1e-12)
    assert np.all(gm <= envelope[None, :] + 1e-12)


def test_branch_agreement_near_diagonal():
    # the two closed forms differ by (t-s)^3 / 6 across the diagonal
    h = 1e-6
    for s in (0.2, 0.5, 0.9):
        t = s + h
        lower = (t**3 * (1.0 - s) ** 2 - (t - s) ** 3) / 6.0
        upper = t**3 * (1.0 - s) ** 2 / 6.0
        assert abs(lower - upper) < 1e-11


def test_continuity_across_diagonal():
    for h in (1e-3, 1e-5, 1e-7):
        for s in (0.3, 0.6):
            assert abs(green(s + h, s) - green(s - h, s)) < h


def test_monotone_in_t_and_boundary_maximum():
    gm = green_matrix(GRID, GRID)
    assert np.all(np.diff(gm, axis=0) >= -1e-15)
    envelope = GRID * (1.0 - GRID) ** 2 / 6.0
    assert np.max(np.abs(gm[-1, :] - envelope)) <= 1e-14
    assert np.max(np.abs(np.max(gm, axis=0) - envelope)) <= 1e-14


def test_make_context_quadratic_weight():
    ctx = make_context(parse("t^2", "t"), theta=0.25)
    assert abs(ctx.alpha - 1.0 / 3.0) < 1e-12
    assert abs(ctx.beta - 13.0 / 96.0) < 1e-12
    assert ctx.cone_constant == pytest.approx(77.0 / 6144.0, abs=1e-14)


def test_make_context_rejects_unit_mass():
    with pytest.raises(HypothesisViolation) as exc:
        make_context(parse("1", "t"))
    assert exc.value.which == "H2"


def test_make_context_rejects_zero_mass():
    with pytest.raises(HypothesisViolation):
        make_context(parse("0", "t"))


def test_make_context_rejects_negative_weight():
    with pytest.raises(HypothesisViolation):
        make_context(parse("t-1/2", "t"))


def test_make_context_rejects_bad_theta():
    with pytest.raises(ValueError):
        make_context(parse("t^2", "t"), theta=0.6)
    with pytest.raises(ValueError):
        make_context(parse("t^2", "t"), theta=0.0)


def test_modified_kernel_zero_weight_reduces_to_green():
    # alpha = 0 is outside (H2), so this context is built directly;
    # the correction integral vanishes and H == G
    ctx = KernelContext(weight=parse("0", "t"), theta=0.25, alpha=0.0, beta=0.0)
    for t, s in [(0.0, 0.5), (0.3, 0.7), (1.0, 0.2), (0.5, 0.5)]:
        assert modified_kernel(t, s, ctx) == pytest.approx(green(t, s), abs=1e-15)


def test_modified_kernel_constant_half_weight():
    ctx = make_context(parse("1/2", "t"))
    assert abs(ctx.alpha - 0.5) < 1e-14
    # s = 0.5 sits on a panel boundary, so the correction quadrature is exact
    assert modified_kernel(0.0, 0.5, ctx) == pytest.approx(1.0 / 128.0, abs=1e-13)


def test_modified_kernel_quadratic_weight_vanishes_at_s_zero(ctx_t2):
    # G(tau, 0) = (tau^3 - tau^3)/6 = 0, so the correction vanishes at s = 0
    for t in (0.0, 0.4, 1.0):
        assert green(t, 0.0) == 0.0
        assert modified_kernel(t, 0.0, ctx_t2) == pytest.approx(0.0, abs=1e-15)


def test_modified_kernel_quadratic_weight_moment_integral(ctx_t2):
    # exact moment integral: (3/2) * int tau^2 G(tau, 1/2) dtau = 37/5120;
    # the integrand is quintic in tau, so 200-panel Simpson carries O(h^4)
    # truncation ~1e-12
    for t in (0.0, 0.4, 1.0):
        expected = green(t, 0.5) + 37.0 / 5120.0
        assert modified_kernel(t, 0.5, ctx_t2) == pytest.approx(expected, abs=1e-11)


def test_modified_kernel_dominates_green(ctx_t2):
    ss = np.linspace(0.0, 1.0, 41)
    corr = correction_values(ctx_t2, ss)
    assert np.all(corr >= -1e-15)
    gm = green_matrix(np.linspace(0.0, 1.0, 41), ss)
    assert np.all(gm + corr[None, :] >= gm - 1e-15)


def test_correction_independent_of_t(ctx_t2):
    for s in (0.1, 0.5, 0.9):
        diffs = [modified_kernel(t, s, ctx_t2) - green(t, s) for t in (0.0, 0.3, 0.7, 1.0)]
        assert max(diffs) - min(diffs) < 1e-15
