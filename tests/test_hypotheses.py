import math

import numpy as np
import pytest

from beambvp.errors import HypothesisViolation
from beambvp.exprlang import parse
from beambvp.hypotheses import (
    build_report,
    certify_f0_zero,
    certify_finf_zero,
    check_h1_h2,
    estimate_f0,
    estimate_finf,
)

F_SATURATING = parse("u*(1-exp(-u))", "u")  # f0 = 0, finf = 1
F_BOUNDED = parse("1-exp(-u)", "u")  # f0 = 1, finf = 0
F_IDENTITY = parse("u", "u")
F_SQUARE = parse("u^2", "u")
A_QUADRATIC = parse("t^2", "t")


# --- limit estimates --------------------------------------------------------


def test_f0_of_saturating_vanishes():
    est = estimate_f0(F_SATURATING)
    assert est.converged and abs(est.value) < 1e-4


def test_f0_of_bounded_is_one():
    est = estimate_f0(F_BOUNDED)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_f0_of_identity():
    assert estimate_f0(F_IDENTITY).value == 1.0


def test_finf_of_bounded_vanishes():
    est = estimate_finf(F_BOUNDED)
    assert est.converged and abs(est.value) < 1e-4


def test_finf_of_saturating_is_one():
    est = estimate_finf(F_SATURATING)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_finf_of_square_diverges():
    est = estimate_finf(F_SQUARE)
    assert est.divergent and est.value is None


def test_f0_divergence_of_affine():
    assert estimate_f0(parse("1+u", "u")).divergent


def test_estimates_record_schedule():
    est = estimate_f0(F_SATURATING)
    assert len(est.samples) == 12
    assert est.samples[0][0] == 0.1 and est.samples[-1][0] == 1e-12


def test_estimate_rejects_negative_f():
    with pytest.raises(HypothesisViolation):
        estimate_f0(parse("u-1", "u"))


def test_estimate_scales_linearly():
    base = estimate_f0(F_BOUNDED).value
    scaled = estimate_f0(lambda u: 3.7 * F_BOUNDED(u)).value
    assert abs(scaled - 3.7 * base) <= 1e-10 * abs(scaled)


def test_overflowing_f_reported_divergent():
    est = estimate_finf(parse("exp(u)", "u"))
    assert est.divergent


# --- small-amplitude certificate -------------------------------------------


def test_certificate_for_saturating_f(ctx_t2):
    cert = certify_f0_zero(F_SATURATING, ctx_t2, estimate_f0(F_SATURATING))
    assert cert is not None
    assert cert.epsilon == 1.0 - ctx_t2.alpha
    assert cert.epsilon == pytest.approx(2.0 / 3.0, abs=1e-12)
    # f(u) <= (2/3) u exactly up to u = ln 3
    assert cert.rho1 == pytest.approx(math.log(3.0), abs=1e-6)


def test_certificate_for_square(ctx_t2):
    cert = certify_f0_zero(F_SQUARE, ctx_t2, estimate_f0(F_SQUARE))
    assert cert is not None
    assert cert.rho1 == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_no_certificate_when_f0_positive(ctx_t2):
    assert certify_f0_zero(F_IDENTITY, ctx_t2, estimate_f0(F_IDENTITY)) is None
    assert certify_f0_zero(F_BOUNDED, ctx_t2, estimate_f0(F_BOUNDED)) is None


def test_certificate_capped_radius(ctx_t2):
    f = parse("0", "u")
    assert certify_f0_zero(f, ctx_t2, estimate_f0(f)).rho1 == 1e3


def test_certificate_scan_invariant(ctx_t2):
    for f in (F_SATURATING, F_SQUARE):
        cert = certify_f0_zero(f, ctx_t2, estimate_f0(f))
        us = np.logspace(-9.0, math.log10(cert.rho1), 10**4)
        margins = np.array([f(float(u)) - cert.epsilon * u for u in us])
        assert float(np.max(margins)) <= 1e-12


# --- large-amplitude certificate -------------------------------------------


def test_bounded_certificate(ctx_t2):
    cert = certify_finf_zero(F_BOUNDED, ctx_t2, estimate_finf(F_BOUNDED))
    assert cert is not None and cert.bounded_case
    assert cert.L == pytest.approx(1.0, abs=1e-6)


def test_bounded_certificate_hump(ctx_t2):
    f = parse("u*exp(-u)", "u")
    cert = certify_finf_zero(f, ctx_t2, estimate_finf(f))
    assert cert is not None and cert.bounded_case
    assert cert.L == pytest.approx(math.exp(-1.0), rel=3e-6)


def test_no_certificate_when_finf_positive(ctx_t2):
    assert certify_finf_zero(F_SQUARE, ctx_t2, estimate_finf(F_SQUARE)) is None
    assert certify_finf_zero(F_SATURATING, ctx_t2, estimate_finf(F_SATURATING)) is None


def test_unbounded_sublinear_certificate(ctx_t2):
    # u^(1/4) is not expressible in the grammar; duck-typed callable
    f = lambda u: u**0.25  # noqa: E731
    cert = certify_finf_zero(f, ctx_t2, estimate_finf(f))
    assert cert is not None and not cert.bounded_case
    assert cert.eta == 1.0 - ctx_t2.alpha
    assert cert.rho_hat2 == max(cert.sigma, cert.rho2)
    # tail inequality past rho2 and head bound below it, on the scan grid
    us = np.logspace(-9.0, 6.0, 10**4)
    tail = us > cert.rho2
    assert np.all(f(us[tail]) <= cert.eta * us[tail] + 1e-12)
    head = us <= cert.rho2
    assert np.all(f(us[head]) <= cert.eta * cert.sigma + 1e-12)


# --- H1 / H2 ---------------------------------------------------------------


def test_h1_h2_for_example_data():
    report = check_h1_h2(F_SATURATING, A_QUADRATIC)
    assert report.h1 and report.h2
    assert report.alpha == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_h1_fails_for_negative_f():
    # 1/u: f is not defined on all of [0, inf)
    for text in ("u-1", "1/u"):
        assert not check_h1_h2(parse(text, "u"), A_QUADRATIC).h1


def test_h2_fails_for_unit_mass():
    report = check_h1_h2(F_SATURATING, parse("2*t", "t"))
    assert not report.h2
    assert report.alpha == pytest.approx(1.0, abs=1e-14)


def test_h2_fails_for_negative_weight():
    assert not check_h1_h2(F_SATURATING, parse("t-1/2", "t")).h2


def test_h1_tolerates_overflow():
    # exp grows past float range on the scan; magnitude is not a sign
    assert check_h1_h2(parse("exp(u)", "u"), A_QUADRATIC).h1


def test_h1_scan_continues_past_failures():
    # f fails near u = 0 (division by zero, exp overflow) and is negative beyond
    assert not check_h1_h2(parse("exp(1/u)-2", "u"), A_QUADRATIC).h1


def test_schedule_keeps_samples_before_first_failure():
    # negative only past the failing point u = 1000: divergent, no violation
    est = estimate_finf(parse("1/(1000-u)", "u"))
    assert est.divergent and [u for u, _ in est.samples] == [10.0, 100.0]
    with pytest.raises(HypothesisViolation):
        estimate_finf(parse("1/(u-1000)", "u"))  # negative before it


# --- assembled report -------------------------------------------------------


def test_report_for_saturating(ctx_t2):
    report = build_report(F_SATURATING, ctx_t2)
    assert report.f0_certificate is not None and report.finf_certificate is None
    assert report.epsilon == 1.0 - ctx_t2.alpha
    assert report.f0_certificate.epsilon == report.epsilon
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
            assert eta is None or eta <= 1.0 - report.alpha
        assert report.epsilon <= 1.0 - report.alpha
