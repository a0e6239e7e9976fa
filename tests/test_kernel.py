import numpy as np
import pytest

from beambvp import kernel
from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.kernel import (
    KernelContext,
    correction_values,
    g_envelope,
    green_matrix,
    make_context,
    sample_weight,
)
from beambvp.linear import operator_matrix
from beambvp.quadrature import QuadratureSettings, integrate, nodes_weights
from beambvp.solver import _discretization

GRID = np.linspace(0.0, 1.0, 201)


def green(t, s):
    """G at one point (t, s)."""
    return float(green_matrix([t], [s])[0, 0])


def test_green_point_values():
    assert green(0.0, 0.3) == 0.0
    assert green(0.5, 0.5) == pytest.approx(1.0 / 192.0, abs=1e-16)
    assert green(0.75, 0.25) == pytest.approx(115.0 / 6144.0, abs=1e-16)
    assert green(1.0, 0.5) == pytest.approx(1.0 / 48.0, abs=1e-16)


def _green_one_expression(t, s):
    """G as one expression, before its branches were split out for the proofs."""
    upper = t**3 * (1.0 - s) ** 2
    return np.where(s <= t, upper - (t - s) ** 3, upper) / 6.0


def test_branch_split_bit_identical(ctx_t2):
    reference = _green_one_expression(GRID[:, None], GRID[None, :])
    assert green_matrix(GRID, GRID).tobytes() == reference.tobytes()
    ts = np.append(GRID, [0.3, 0.7])
    ss = np.append(GRID[::-1], [0.3, 0.2])
    assert np.diag(green_matrix(ts, ss)).tobytes() == _green_one_expression(ts, ss).tobytes()
    # the norm bound's weights are the envelope at the nodes
    grid_g = _discretization(ctx_t2, 200).g
    assert grid_g.tobytes() == (GRID * (1.0 - GRID) ** 2 / 6.0).tobytes()


def test_g_weight_values():
    assert g_envelope(0.0) == 0.0
    assert g_envelope(1.0) == 0.0
    assert g_envelope(0.5) == pytest.approx(1.0 / 48.0, abs=1e-16)
    values = g_envelope(np.array([0.0, 0.5, 1.0]))
    assert values.shape == (3,) and values[0] == values[2] == 0.0
    assert values[1] == pytest.approx(1.0 / 48.0, abs=1e-16)


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


def test_make_context_accepts_mass_near_one():
    # 1 - alpha = 1e-6 is far above the sum's rounding bound, 1.3e-13 (3t^2 itself is refused)
    ctx = make_context(parse("0.999999*3*t^2", "t"))
    assert ctx.alpha == pytest.approx(0.999999, abs=1e-15)


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


def test_make_context_rejects_unevaluable_weight():
    # the second a fails only at 0.25125, an abscissa of beta's rule on [0.25, 0.75]
    for text, t in (("0.1/(t-1/2)^2", "0.5"),
                    ("0.1 + 0.000000000000000000000000000001/(t-0.25125)^2", "0.25125")):
        with pytest.raises(HypothesisViolation) as exc:
            make_context(parse(text, "t"), theta=0.25)
        assert exc.value.which == "H2" and f"t = {t}:" in str(exc.value)


@pytest.mark.parametrize("text", ["t^2", "0.9*t^2", "exp(-t)/2", "0.3+0.5*t*(1-t)-0.2*t^3"])
@pytest.mark.parametrize("panels", [1, 7, 200, 333])
@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4999])
def test_make_context_masses_match_integrate(text, panels, theta):
    # alpha and beta come from one sampling, bit-identical to the rule's integrals
    weight, quad = parse(text, "t"), QuadratureSettings(panels=panels)
    ctx = make_context(weight, theta=theta, quad=quad)
    assert ctx.alpha == integrate(weight, 0.0, 1.0, quad)
    assert ctx.beta == min(max(integrate(weight, theta, 1.0 - theta, quad), 0.0), ctx.alpha)


def test_contexts_on_equal_theta_and_panels_share_one_read_only_rule():
    kernel._simpson_rule.cache_clear()
    weight, quad = parse("t^2", "t"), QuadratureSettings(panels=200)
    first, second = make_context(weight, quad=quad), make_context(weight, quad=QuadratureSettings(200))
    assert second.taus is first.taus and not first.taus.flags.writeable
    assert kernel._simpson_rule.cache_info().misses == 2  # [0, 1] and [theta, 1 - theta], once each
    with pytest.raises(ValueError):
        first.taus[0] = 1.0


def test_another_theta_gets_its_own_inner_points():
    kernel._simpson_rule.cache_clear()
    sampled = []

    def weight(ts):
        sampled.append(ts.copy())
        return ts**2

    skip = len(kernel.H2_POINTS) + len(nodes_weights(0.0, 1.0)[0])  # the inner rule's points come last
    for theta in (0.25, 0.1, 0.25):
        make_context(weight, theta=theta)
        inner = sampled[-1][skip:]
        assert inner.tobytes() == nodes_weights(theta, 1.0 - theta)[0].tobytes()
    assert kernel._simpson_rule.cache_info().misses == 3


@pytest.mark.parametrize("text", ["t^2", "exp(-t)/2", "0.3+0.5*t*(1-t)-0.2*t^3"])
@pytest.mark.parametrize("panels", [1, 7, 200])
@pytest.mark.parametrize("theta", [0.1, 0.4999])
def test_shared_rules_build_the_context_bit_identically(text, panels, theta):
    weight, quad = parse(text, "t"), QuadratureSettings(panels=panels)
    make_context(weight, theta=theta, quad=quad)  # fills the cache, if the rules are not in it
    warm = make_context(weight, theta=theta, quad=quad)
    kernel._simpson_rule.cache_clear()
    cold = make_context(weight, theta=theta, quad=quad)
    assert (warm.alpha, warm.beta) == (cold.alpha, cold.beta)
    assert warm.tau_weights.tobytes() == cold.tau_weights.tobytes()
    assert warm.taus.tobytes() == cold.taus.tobytes() == nodes_weights(0.0, 1.0, quad)[0].tobytes()


def test_sample_weight_evaluates_the_points_as_given_once():
    calls = []

    def weight(ts):
        calls.append(ts)
        return 1.0 + ts

    first, second = sample_weight(weight, np.array([0.5, 0.25]), np.array([0.25, 0.0]))
    assert [c.tolist() for c in calls] == [[0.5, 0.25, 0.25, 0.0]]
    assert first.tolist() == [1.5, 1.25] and second.tolist() == [1.25, 1.0]


def test_sample_weight_names_the_smallest_failing_t():
    with pytest.raises(HypothesisViolation, match=r"evaluated at t = 0\.5:"):
        sample_weight(parse("1/((t-3/4)*(t-1/2))", "t"), np.array([0.75, 1.0]), np.array([0.5]))
    weight = parse("t-1/2", "t")
    with pytest.raises(HypothesisViolation, match=r"a\(0\.25\) = -0\.25 < 0"):
        sample_weight(weight, np.array([0.75, 0.3]), np.array([0.25]))
    # no sampling skips the sign check
    with pytest.raises(HypothesisViolation, match=r"a\(0\.25\) = -0\.25 < 0"):
        sample_weight(weight, np.array([0.25]))


def test_sample_weight_names_a_failure_before_a_smaller_negative_t():
    with pytest.raises(HypothesisViolation, match=r"evaluated at t = 0\.75:"):
        sample_weight(parse("(t-1/4)/(t-3/4)", "t"), np.array([0.75]), np.array([0.5]))


# the modified kernel is H(t, s) = G(t, s) + c(s), with c from correction_values


def test_modified_kernel_zero_weight_reduces_to_green():
    # alpha = 0 is outside (H2), so this context and its correction rule
    # a(tau) w / (1 - alpha) are built directly; the correction vanishes and H == G
    weight = parse("0", "t")
    taus, ws = nodes_weights(0.0, 1.0)
    ctx = KernelContext(weight=weight, theta=0.25, alpha=0.0, beta=0.0,
                        taus=taus, tau_weights=weight(taus) * ws)
    assert np.all(correction_values(ctx, GRID) == 0.0)


def test_modified_kernel_constant_half_weight():
    ctx = make_context(parse("1/2", "t"))
    assert abs(ctx.alpha - 0.5) < 1e-14
    # s = 0.5 sits on a panel boundary, so the correction quadrature is exact
    assert green(0.0, 0.5) == 0.0
    assert correction_values(ctx, 0.5)[0] == pytest.approx(1.0 / 128.0, abs=1e-13)


def test_modified_kernel_quadratic_weight_vanishes_at_s_zero(ctx_t2):
    # G(tau, 0) = (tau^3 - tau^3)/6 = 0, so the correction vanishes at s = 0
    for t in (0.0, 0.4, 1.0):
        assert green(t, 0.0) == 0.0
    assert correction_values(ctx_t2, 0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_modified_kernel_quadratic_weight_moment_integral(ctx_t2):
    # exact moment integral: (3/2) * int tau^2 G(tau, 1/2) dtau = 37/5120;
    # the integrand is quintic in tau, so 200-panel Simpson carries O(h^4)
    # truncation ~1e-12
    assert correction_values(ctx_t2, 0.5)[0] == pytest.approx(37.0 / 5120.0, abs=1e-11)


def test_modified_kernel_dominates_green(ctx_t2):
    ss = np.linspace(0.0, 1.0, 41)
    corr = correction_values(ctx_t2, ss)
    assert np.all(corr >= -1e-15)
    gm = green_matrix(np.linspace(0.0, 1.0, 41), ss)
    assert np.all(gm + corr[None, :] >= gm - 1e-15)


def test_correction_independent_of_t(ctx_t2):
    # H - G = c(s) carries no t: two weights shift the operator's output
    # by one constant, whatever the load
    ctx_half = make_context(parse("1/2", "t"))
    y = 0.5 + GRID * (1.0 - GRID) + np.sin(7.0 * GRID) ** 2
    diff = operator_matrix(ctx_t2, 200)(y) - operator_matrix(ctx_half, 200)(y)
    assert np.ptp(diff) < 1e-15
