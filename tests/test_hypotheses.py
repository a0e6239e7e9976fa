import math

import numpy as np
import pytest

from beambvp import hypotheses
from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.hypotheses import build_report, check_h1_h2

F_SATURATING = parse("u*(1-exp(-u))", "u")  # f0 = 0, finf = 1
F_BOUNDED = parse("1-exp(-u)", "u")  # f0 = 1, finf = 0
F_IDENTITY = parse("u", "u")
F_SQUARE = parse("u^2", "u")
A_QUADRATIC = parse("t^2", "t")


# --- limit estimates --------------------------------------------------------


def test_f0_of_saturating_vanishes(ctx_t2):
    est = build_report(F_SATURATING, ctx_t2).f0_estimate
    assert est.converged and abs(est.value) < 1e-4


def test_f0_of_bounded_is_one(ctx_t2):
    est = build_report(F_BOUNDED, ctx_t2).f0_estimate
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_f0_of_identity(ctx_t2):
    assert build_report(F_IDENTITY, ctx_t2).f0_estimate.value == 1.0


def test_finf_of_bounded_vanishes(ctx_t2):
    est = build_report(F_BOUNDED, ctx_t2).finf_estimate
    assert est.converged and abs(est.value) < 1e-4


def test_finf_of_saturating_is_one(ctx_t2):
    est = build_report(F_SATURATING, ctx_t2).finf_estimate
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_finf_of_square_diverges(ctx_t2):
    est = build_report(F_SQUARE, ctx_t2).finf_estimate
    assert est.divergent and est.value is None


def test_f0_divergence_of_affine(ctx_t2):
    assert build_report(parse("1+u", "u"), ctx_t2).f0_estimate.divergent


def test_estimates_record_schedule(ctx_t2):
    est = build_report(F_SATURATING, ctx_t2).f0_estimate
    assert len(est.samples) == 12
    assert est.samples[0][0] == 0.1 and est.samples[-1][0] == 1e-12


def test_estimate_rejects_negative_f(ctx_t2):
    with pytest.raises(HypothesisViolation):
        build_report(parse("u-1", "u"), ctx_t2)


def test_estimate_scales_linearly(ctx_t2):
    base = build_report(F_BOUNDED, ctx_t2).f0_estimate.value
    scaled = build_report(lambda u: 3.7 * F_BOUNDED(u), ctx_t2).f0_estimate.value
    assert abs(scaled - 3.7 * base) <= 1e-10 * abs(scaled)


def test_overflowing_f_reported_divergent(ctx_t2):
    est = build_report(parse("exp(u)", "u"), ctx_t2).finf_estimate
    assert est.divergent


# --- small-amplitude certificate -------------------------------------------


def test_certificate_for_saturating_f(ctx_t2):
    cert = build_report(F_SATURATING, ctx_t2).f0_certificate
    assert cert is not None
    assert cert.epsilon == 1.0 - ctx_t2.alpha
    assert cert.epsilon == pytest.approx(2.0 / 3.0, abs=1e-12)
    # f(u) <= (2/3) u exactly up to u = ln 3
    assert cert.rho1 == pytest.approx(math.log(3.0), abs=1e-6)


def test_certificate_for_square(ctx_t2):
    cert = build_report(F_SQUARE, ctx_t2).f0_certificate
    assert cert is not None
    assert cert.rho1 == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_no_certificate_when_f0_positive(ctx_t2):
    assert build_report(F_IDENTITY, ctx_t2).f0_certificate is None
    assert build_report(F_BOUNDED, ctx_t2).f0_certificate is None


def test_certificate_capped_radius(ctx_t2):
    f = parse("0", "u")
    assert build_report(f, ctx_t2).f0_certificate.rho1 == 1e3


def test_certificate_stops_at_a_bump_between_scan_points(ctx_t2):
    # the bump lifts f above (2/3) u on about (0.66617, 0.66620), between
    # two points of the log scan; f <= (2/3) u again from there to u = 2/3
    f = parse("u^2 + 0.001*exp(-((u-0.6661862)/1.8e-05)^2)", "u")
    cert = build_report(f, ctx_t2).f0_certificate
    us = np.linspace(0.6657, 0.6667, 200001)
    first_above = us[np.argmax(f(us) - cert.epsilon * us > 0.0)]
    assert f(float(first_above)) > cert.epsilon * first_above
    assert cert.rho1 <= first_above


def test_certificate_is_relatively_accurate_below_one(ctx_t2):
    # f = epsilon u at u = epsilon / 1e5 ~ 6.7e-6, where approx's default
    # absolute tolerance, 1e-12, would pass an error of 1.5e-7 relative
    f = parse("100000*u^2", "u")
    cert = build_report(f, ctx_t2).f0_certificate
    assert cert.rho1 == pytest.approx(cert.epsilon / 1e5, rel=1e-12, abs=0.0)


def test_certificate_within_the_scan_slack(ctx_t2):
    # f - (2/3) u is positive but below the scan's 1e-12 slack from u ~ 30
    # to u ~ 102: no point of the first rescan's bracket lies below the ray,
    # so rho1 stays at the scan point that the slack let pass
    f = parse("0.66666666666667663*u*u^4/(u^4+0.00000001)", "u")
    cert = build_report(f, ctx_t2).f0_certificate
    us = hypotheses._scan_grid(3.0)
    k = int(np.argmax(f(us) - cert.epsilon * us > hypotheses.MARGIN_SLACK))
    assert cert.rho1 == us[k - 1]
    assert 0.0 < f(cert.rho1) - cert.epsilon * cert.rho1 <= hypotheses.MARGIN_SLACK


def test_certificate_scan_invariant(ctx_t2):
    for f in (F_SATURATING, F_SQUARE):
        cert = build_report(f, ctx_t2).f0_certificate
        us = np.logspace(-9.0, math.log10(cert.rho1), 10**4)
        margins = np.array([f(float(u)) - cert.epsilon * u for u in us])
        assert float(np.max(margins)) <= 1e-12


# --- large-amplitude certificate -------------------------------------------


def test_bounded_certificate(ctx_t2):
    cert = build_report(F_BOUNDED, ctx_t2).finf_certificate
    assert cert is not None and cert.bounded_case
    assert cert.L == pytest.approx(1.0, abs=1e-6)


def test_bounded_certificate_hump(ctx_t2):
    f = parse("u*exp(-u)", "u")
    cert = build_report(f, ctx_t2).finf_certificate
    assert cert is not None and cert.bounded_case
    assert cert.L == pytest.approx(math.exp(-1.0), rel=3e-6)


def test_no_certificate_when_finf_positive(ctx_t2):
    assert build_report(F_SQUARE, ctx_t2).finf_certificate is None
    assert build_report(F_SATURATING, ctx_t2).finf_certificate is None


def test_unbounded_sublinear_certificate(ctx_t2):
    # u^(1/4) is not expressible in the grammar; duck-typed callable
    f = lambda u: u**0.25  # noqa: E731
    cert = build_report(f, ctx_t2).finf_certificate
    assert cert is not None and not cert.bounded_case
    assert cert.eta == 1.0 - ctx_t2.alpha
    assert cert.rho_hat2 == max(cert.sigma, cert.rho2)
    # tail inequality past rho2 and head bound below it, on the scan grid
    us = np.logspace(-9.0, 6.0, 10**4)
    tail = us > cert.rho2
    assert np.all(f(us[tail]) <= cert.eta * us[tail] + 1e-12)
    head = us <= cert.rho2
    assert np.all(f(us[head]) <= cert.eta * cert.sigma + 1e-12)


@pytest.mark.parametrize("text", ["1000000000000000000*u^3", "1000000000000*u^3"],
                         ids=["first-scan-point-above", "rho1-below-min"])
def test_certificate_refused_although_f0_is_zero(ctx_t2, text):
    # f(1e-9) = 1e-9 > (2/3) 1e-9; or f <= (2/3) u only up to u ~ 8.2e-7 < RHO1_MIN
    f = parse(text, "u")
    report = build_report(f, ctx_t2)
    assert report.f0_estimate.is_zero() and report.f0_certificate is None


def test_case2_with_no_point_above_the_ray(ctx_t2):
    # f <= u/2 < (2/3) u everywhere, and f grows through the probe's last decade
    f = parse("0.5*u*exp(-u/1000000)", "u")
    cert = build_report(f, ctx_t2).finf_certificate
    first = float(hypotheses._probe()[1])
    assert not cert.bounded_case and cert.rho2 == first == pytest.approx(1e-9, rel=1e-15)
    assert cert.sigma == f(first) / cert.eta and cert.rho_hat2 == first


def test_case2_refused_above_the_ray_at_the_cap(ctx_t2):
    # finf = 0, but f(1e6) = 1e6 exp(-1/4) lies above (2/3) u
    f = parse("u*exp(-(u/2000000)^2)", "u")
    report = build_report(f, ctx_t2)
    assert report.finf_estimate.is_zero() and report.finf_certificate is None


# --- H1 / H2 ---------------------------------------------------------------


def test_h1_h2_for_example_data():
    report = check_h1_h2(F_SATURATING, A_QUADRATIC)
    assert report.h1 and report.h2
    assert report.ctx.alpha == pytest.approx(1.0 / 3.0, abs=1e-12)


def _violation(f, a):
    with pytest.raises(HypothesisViolation) as exc:
        check_h1_h2(f, a)
    return exc.value


def test_h1_fails_for_negative_f():
    # 1/u: f is not defined on all of [0, inf)
    for text, message in (("u-1", "f(0.0) = -1.0 < 0"),
                          ("1/u", "f cannot be evaluated at u = 0: division by zero at offset 1")):
        exc = _violation(parse(text, "u"), A_QUADRATIC)
        assert exc.which == "H1" and str(exc) == f"hypothesis H1 violated: {message}"


def test_h2_fails_for_unit_mass():
    exc = _violation(F_SATURATING, parse("2*t", "t"))
    assert exc.which == "H2" and "total mass of a over [0,1] is 1.0," in str(exc)


def test_h2_fails_for_negative_weight():
    # H2 is checked first: an f breaking H1 as well does not change the verdict
    for f in (F_SATURATING, parse("u-1", "u")):
        exc = _violation(f, parse("t-1/2", "t"))
        assert exc.which == "H2" and str(exc) == "hypothesis H2 violated: a(0.0) = -0.5 < 0"


def test_h1_tolerates_overflow():
    # exp grows past float range on the scan; magnitude is not a sign
    assert check_h1_h2(parse("exp(u)", "u"), A_QUADRATIC).h1


def test_h1_scan_continues_past_failures():
    # f overflows on about (0.23, 0.77) and is negative from just above u = 1
    exc = _violation(parse("exp(4000*u*(1-u)) - u", "u"), A_QUADRATIC)
    assert exc.which == "H1" and str(exc).startswith("hypothesis H1 violated: f(1.00207")


def test_schedule_keeps_samples_before_first_failure(ctx_t2):
    # negative only past the failing point u = 1000: divergent, no violation
    est = build_report(parse("1/(1000-u)", "u"), ctx_t2).finf_estimate
    assert est.divergent and [u for u, _ in est.samples] == [10.0, 100.0]
    with pytest.raises(HypothesisViolation):
        build_report(parse("1/(u-1000)", "u"), ctx_t2)  # negative before it
    # >= 0 on the f0 schedule, negative at u = 10 of the finf schedule, before u = 1000
    with pytest.raises(HypothesisViolation, match=r"f\(10\.0\) = "):
        build_report(parse("(u-1)/(u-1000)", "u"), ctx_t2)


# --- assembled report -------------------------------------------------------


def test_report_for_saturating(ctx_t2):
    report = build_report(F_SATURATING, ctx_t2)
    assert report.f0_certificate is not None and report.finf_certificate is None
    assert report.f0_certificate.epsilon == 1.0 - ctx_t2.alpha
    assert report.f0_certificate.rho1 > 0.0


def test_report_for_bounded(ctx_t2):
    report = build_report(F_BOUNDED, ctx_t2)
    assert report.finf_certificate is not None and report.f0_certificate is None
    assert report.finf_certificate.bounded_case is True
    assert report.finf_certificate.L is not None


def test_report_coherence(ctx_t2):
    for f in (F_SATURATING, F_BOUNDED, F_SQUARE, F_IDENTITY):
        report = build_report(f, ctx_t2)
        if report.f0_certificate is not None:
            assert report.f0_estimate.converged
            assert abs(report.f0_estimate.value) < 1e-4
        if report.finf_certificate is not None:
            assert report.finf_estimate.converged
            assert abs(report.finf_estimate.value) < 1e-4
            eta = report.finf_certificate.eta
            assert eta is None or eta <= 1.0 - ctx_t2.alpha


@pytest.mark.parametrize("text", [
    "u*(1-exp(-u))", "1-exp(-u)", "u^2", "u", "exp(u)", "1e300*u + 1e300", "exp(800-(u-500)^2)",
    "1000000000000*u^3", "0.5*u*exp(-u/1000000)", "u*exp(-(u/2000000)^2)", "exp(4000*u*(1-u)) + 1",
])
def test_report_from_the_gate_probe_matches_build_report(ctx_t2, text):
    # analyze passes the gate's values; without them build_report evaluates f itself
    f = parse(text, "u")
    gate = check_h1_h2(f, A_QUADRATIC)
    assert build_report(f, gate.ctx, gate.f_probe) == build_report(f, ctx_t2)


# --- probe grids --------------------------------------------------------------


def test_probe_grids_are_cached_read_only_and_bit_identical():
    for hi_exp in (math.log10(hypotheses.RHO1_CAP), math.log10(hypotheses.BOUNDEDNESS_CAP)):
        grid = hypotheses._scan_grid(hi_exp)
        assert grid is hypotheses._scan_grid(hi_exp) and not grid.flags.writeable
        assert grid.tobytes() == np.logspace(-9.0, hi_exp, 10**4).tobytes()
    probe = hypotheses._probe()
    assert probe is hypotheses._probe() and not probe.flags.writeable
    scan = np.concatenate(([0.0], np.logspace(-9.0, 6.0, 10**4)))
    assert probe[hypotheses._SCAN].tobytes() == scan.tobytes()
    with pytest.raises(ValueError):
        probe[0] = 1.0
    # both limit schedules follow the scan, so the H1 gate's first failure keeps its wording
    assert probe[len(scan):].tolist() == list(hypotheses.F0_SCHEDULE + hypotheses.FINF_SCHEDULE)
    assert probe[hypotheses._F0].tolist() == list(hypotheses.F0_SCHEDULE)
    assert probe[hypotheses._FINF].tolist() == list(hypotheses.FINF_SCHEDULE)
