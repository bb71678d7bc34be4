"""Tail-machinery checks against high-precision reference values.

Reference constants were computed with 40-digit mpmath evaluations of the
same closed forms and frozen here.
"""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sparsejl import (
    DomainError,
    TailEnvelope,
    bennet_h,
    chernoff_optimum_check,
    mgf_envelope_bound,
    poisson_tail_bound,
    psi,
    sub_poisson_tail,
)
from sparsejl.concentration import _H_LARGE_CUTOFF, _bennet_h_series

H_37_5 = 0.14656048681217270582
H_25 = 0.19107363196338730618
H_E_MINUS_1 = 0.67739377467693178912


class TestBennetH:
    def test_small_u_limit(self):
        assert bennet_h(1e-8) == pytest.approx(1.0, abs=1e-8)
        assert bennet_h(0.0) == 1.0

    def test_closed_form_at_e_minus_1(self):
        """h(e-1) = 2/(e-1)^2 since log(e) = 1."""
        assert bennet_h(math.e - 1.0) == pytest.approx(2.0 / (math.e - 1.0) ** 2, rel=1e-14)
        assert bennet_h(math.e - 1.0) == pytest.approx(H_E_MINUS_1, rel=1e-14)

    def test_reference_values(self):
        assert bennet_h(37.5) == pytest.approx(H_37_5, rel=1e-13)
        assert 0.146 < bennet_h(37.5) < 0.147
        assert bennet_h(25.0) == pytest.approx(H_25, rel=1e-13)

    def test_negative_u_rejected(self):
        with pytest.raises(DomainError):
            bennet_h(-0.5)

    def test_strictly_decreasing_and_bounded(self):
        grid = np.geomspace(1e-9, 1e6, 400)
        values = [bennet_h(float(u)) for u in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_large_u_matches_decimal_reference(self):
        """u * u overflowed above about 1.3e154: h(1e160) was 0.0 and h(1.7e308) nan."""
        for u in (1e150, 1e160, 1e300, 1.7e308):
            with localcontext() as ctx:
                ctx.prec = 50
                d = Decimal(u)
                ref = float(((1 + d) * (1 + d).ln() - d) / (d * d / 2))
            assert bennet_h(u) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_strictly_decreasing_across_large_u_switch(self):
        grid = sorted(np.geomspace(_H_LARGE_CUTOFF / 1.01, _H_LARGE_CUTOFF * 1.01, 200).tolist() + [_H_LARGE_CUTOFF])
        values = [bennet_h(u) for u in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_series_matches_references(self):
        """The Taylor evaluator agrees with 40-digit evaluations of h."""
        refs = {
            1e-12: 0.9999999999996666544373440222,
            1e-08: 0.9999999966666666833333330907,
            1e-05: 0.9999966666833332333339999952,
            1e-04: 0.9999666683332333399995238452,
            1e-03: 0.9996668332333999524166389111,
            1e-02: 0.9966832339952735339502223941,
        }
        for u, ref in refs.items():
            assert _bennet_h_series(u) == pytest.approx(ref, rel=1e-15)

    def test_series_vs_closed_form_agreement(self):
        """Both evaluation routes agree up to the closed form's cancellation.

        Computing (1+u)log1p(u) - u in float64 carries absolute error of
        order eps*u against a numerator of u^2/2, so the closed form is
        only reliable to ~2 eps/u; the two routes must agree within that
        envelope, and to 1e-12 wherever the envelope allows it.
        """
        for u in np.geomspace(1e-12, 1e-2, 300):
            u = float(u)
            closed = ((1.0 + u) * math.log1p(u) - u) / (u * u / 2.0)
            tol = max(1e-12, 5.0 * 2.220446049250313e-16 / u)
            assert abs(_bennet_h_series(u) - closed) <= tol


class TestPoissonTailBound:
    def test_at_eps_equal_lambda(self):
        assert poisson_tail_bound(1.0, 1.0) == 1.0

    def test_reference_value(self):
        """Bound at (1, 4) equals e^3/256."""
        assert poisson_tail_bound(1.0, 4.0) == pytest.approx(0.078459128606201827, rel=1e-14)

    def test_dominates_exact_tail(self):
        """Bound >= 1 - CDF(eps - 1) for integer eps >= lambda."""
        for lam in (0.5, 1.0, 2.0, 4.0):
            for eps in range(math.ceil(lam), int(lam) + 11):
                cdf = math.fsum(
                    math.exp(-lam) * lam**k / math.factorial(k) for k in range(eps)
                )
                assert poisson_tail_bound(lam, float(eps)) >= (1.0 - cdf) - 1e-15

    def test_exact_tail_reference(self):
        exact = 1.0 - math.exp(-1.0) * (1.0 + 1.0 + 0.5 + 1.0 / 6.0)
        assert exact == pytest.approx(0.018988156876153809, rel=1e-12)
        assert poisson_tail_bound(1.0, 4.0) >= exact

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_tail_bound(0.0, 1.0)
        with pytest.raises(DomainError):
            poisson_tail_bound(1.0, -2.0)

    def test_never_exceeds_one(self):
        """The exponent -lam + eps(1 + log(lam/eps)) peaks at 0 when eps = lam."""
        for lam in (0.3, 1.0, 5.0, 20.0):
            for eps in np.geomspace(lam / 100, lam * 100, 50):
                assert poisson_tail_bound(lam, float(eps)) <= 1.0
        assert poisson_tail_bound(5.0, 5.0) == 1.0


class TestPsi:
    def test_vanishes_at_small_t(self):
        assert psi(1e-9, 1 / 30) < 1e-17
        assert psi(1e-9, 0.01) < 1e-17

    def test_reference_values(self):
        assert psi(0.25, 1 / 30) == pytest.approx(0.30594302981755600416, rel=1e-13)
        assert psi(0.5, 0.01) == pytest.approx(2.5955238433404476954, rel=1e-13)

    def test_branch_point_values_below_envelope(self):
        """Both branch evaluations near t = 1/2 stay under the K=50 envelope."""
        k = 50.0
        envelope = (math.expm1(k * 0.5) - k * 0.5 - (k * 0.5) ** 2 / 2) * 2 / k**2
        below = psi(0.5 - 1e-9, 0.01)
        at = psi(0.5, 0.01)
        assert math.isfinite(below) and math.isfinite(at)
        assert below < envelope and at < envelope

    def test_instantiated_envelope_inequality(self):
        """psi(1/4, 1/30) <= (e^{12.5} - 1250/16 - 13.5) / 1250 at K = 50."""
        rhs = (math.exp(12.5) - 1250 * 0.25**2 - 12.5 - 1.0) / 1250.0
        assert rhs == pytest.approx(214.59652921669956557, rel=1e-13)
        assert psi(0.25, 1 / 30) <= rhs

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi(0.1, 0.05)  # p > 1/30
        with pytest.raises(DomainError):
            psi(0.0, 1 / 30)
        with pytest.raises(DomainError):
            psi(math.log(30.0) / 2.0, 1 / 30)  # t at the open upper limit
        with pytest.raises(DomainError):
            psi(-1.0, 1 / 30)


class TestMgfEnvelopeBound:
    def test_limit_at_zero(self):
        assert mgf_envelope_bound(1e-12, 1 / 30) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        expected = 1.0 + 2.0 * (1 / 30) ** 2 * (math.exp(5.0) - 6.0) / 2500.0
        assert expected == pytest.approx(1.00012658947475784587, rel=1e-14)
        assert mgf_envelope_bound(0.1, 1 / 30) == pytest.approx(expected, rel=1e-14)

    def test_boundary_accepted(self):
        p = 1 / 30
        t_end = math.log(1.0 / (2.0 * p)) / 2.0
        assert math.isfinite(mgf_envelope_bound(t_end, p))
        with pytest.raises(DomainError):
            mgf_envelope_bound(t_end * (1 + 1e-9), p)

    def test_always_at_least_one(self):
        for t in np.linspace(1e-6, math.log(15.0) / 2.0, 50):
            assert mgf_envelope_bound(float(t), 1 / 30) >= 1.0

    def test_dominates_exact_mgf_assembly(self):
        """1 + t^2 p^2 + p^2 psi(t, p) <= envelope bound across the domain."""
        for p in (1 / 100, 1 / 30):
            t_end = math.log(1.0 / (2.0 * p)) / 2.0
            for i in range(1, 400):
                t = t_end * i / 399
                assembled = 1.0 + t * t * p * p + p * p * psi(t, p)
                assert assembled <= mgf_envelope_bound(t, p) * (1.0 + 1e-12)


class TestSubPoissonTail:
    def test_gaussian_limit_small_u(self):
        env = TailEnvelope(1.0, 1.0)
        assert sub_poisson_tail(env, 1e-6) == pytest.approx(1.0 - 5e-13, abs=1e-15)

    def test_reference_value(self):
        """Tail at (v=2, k=50, u=1) is exp(-h(25)/4)."""
        env = TailEnvelope(2.0, 50.0)
        assert sub_poisson_tail(env, 1.0) == pytest.approx(0.95335455080881711902, rel=1e-13)

    def test_zero_variance_degenerate(self):
        assert sub_poisson_tail(TailEnvelope(0.0, 1.0), 0.5) == 0.0

    def test_gaussian_limit_small_k(self):
        """As k -> 0 the tail approaches exp(-u^2/2v).

        The deviation is first-order u^3 k / (6 v^2), so k = 1e-9 puts
        every point of this grid inside 1e-8 relative agreement.
        """
        for v in (0.5, 1.0, 3.0):
            for u in (0.1, 1.0, 2.0):
                gauss = math.exp(-u * u / (2.0 * v))
                assert sub_poisson_tail(TailEnvelope(v, 1e-9), u) == pytest.approx(gauss, rel=1e-8)
                gap_coarse = abs(sub_poisson_tail(TailEnvelope(v, 1e-4), u) - gauss)
                gap_fine = abs(sub_poisson_tail(TailEnvelope(v, 1e-6), u) - gauss)
                assert gap_fine <= gap_coarse

    def test_monotone_in_u_and_v(self):
        env = TailEnvelope(2.0, 50.0)
        us = np.linspace(0.05, 5.0, 60)
        tails = [sub_poisson_tail(env, float(u)) for u in us]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        vs = np.linspace(0.5, 8.0, 60)
        tails_v = [sub_poisson_tail(TailEnvelope(float(v), 50.0), 1.0) for v in vs]
        assert all(a <= b for a, b in zip(tails_v, tails_v[1:]))

    def test_envelope_validation(self):
        with pytest.raises(DomainError):
            TailEnvelope(-1.0, 1.0)
        with pytest.raises(DomainError):
            TailEnvelope(1.0, 0.0)
        with pytest.raises(DomainError):
            sub_poisson_tail(TailEnvelope(1.0, 1.0), 0.0)


class TestChernoffOptimumCheck:
    def test_unit_case_closed_form(self):
        """At v = k = u = 1 both routes equal 1 - 2 log 2."""
        env = TailEnvelope(1.0, 1.0)
        assert chernoff_optimum_check(env, 1.0) <= 1e-12
        t_star = math.log(2.0)
        optimized = (math.exp(t_star) - t_star - 1.0) - t_star
        assert optimized == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-15)
        assert math.log(sub_poisson_tail(env, 1.0)) == pytest.approx(
            1.0 - 2.0 * math.log(2.0), rel=1e-12
        )

    def test_reference_envelope(self):
        assert chernoff_optimum_check(TailEnvelope(2.0, 50.0), 1.0) <= 1e-12

    def test_small_u(self):
        assert chernoff_optimum_check(TailEnvelope(1.0, 1.0), 1e-8) <= 1e-12

    def test_zero_variance_proxy_is_domain_error(self):
        """TailEnvelope accepts v = 0 (a point mass); the optimizer identity needs v > 0."""
        with pytest.raises(DomainError, match="positive variance proxy"):
            chernoff_optimum_check(TailEnvelope(0.0, 1.0), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    bennet_h,
    lambda v: poisson_tail_bound(v, 1.0),
    lambda v: poisson_tail_bound(1.0, v),
    lambda v: TailEnvelope(v, 1.0),
    lambda v: TailEnvelope(1.0, v),
    lambda v: sub_poisson_tail(TailEnvelope(1.0, 1.0), v),
    lambda v: chernoff_optimum_check(TailEnvelope(1.0, 1.0), v),
    lambda v: psi(v, 0.01),
    lambda v: psi(0.5, v),
    lambda v: mgf_envelope_bound(v, 0.01),
    lambda v: mgf_envelope_bound(0.5, v),
], ids=["bennet_h", "poisson_lam", "poisson_eps", "envelope_v", "envelope_k", "sub_poisson_u", "chernoff_u",
        "psi_t", "psi_p", "mgf_t", "mgf_p"])
def test_non_finite_argument_is_domain_error(call, value):
    """Range checks once written as x <= 0 let NaN through: poisson_tail_bound(nan, 1.0) returned 1.0."""
    with pytest.raises(DomainError, match="finite"):
        call(value)


@pytest.mark.parametrize("call", [lambda: psi(150.0, 1e-300), lambda: mgf_envelope_bound(20.0, 1e-20)], ids=["psi", "mgf"])
def test_float_range_overflow_is_domain_error(call):
    """Valid arguments with e^{6t} or e^{50t} past the float range ended in a bare OverflowError."""
    with pytest.raises(DomainError, match=r"float range"):
        call()


@pytest.mark.parametrize("call", [
    lambda: sub_poisson_tail(TailEnvelope(1e-300, 1e10), 1e10),
    lambda: chernoff_optimum_check(TailEnvelope(1e-300, 1e10), 1e10),
    lambda: chernoff_optimum_check(TailEnvelope(1.0, 1e-200), 1.0),
    lambda: chernoff_optimum_check(TailEnvelope(1e-300, 1e-300), 1e10),
], ids=["sub_poisson-ratio", "chernoff-ratio", "chernoff-k_squared", "chernoff-tiny_v_k"])
def test_chernoff_exponent_beyond_float_range_is_domain_error(call):
    """k u / v past the float range was reported as a bad u the caller never gave,
    and k^2 below it ended in a bare ZeroDivisionError."""
    with pytest.raises(DomainError, match=r"v = .*, k = .*, u = .* leaves the float range"):
        call()


def test_tiny_scale_tail_stays_gaussian():
    """k u / v underflowing toward 0 keeps the Gaussian tail exp(-u^2/2v)."""
    assert sub_poisson_tail(TailEnvelope(1.0, 1e-200), 1.0) == math.exp(-0.5)


@pytest.mark.parametrize("v, u, exponent", [(1e308, 1e155, -50.0), (1e308, 1e154, -0.5), (1e300, 1e160, -5e19)],
                         ids=["u_squared", "two_v", "both_large"])
def test_chernoff_exponent_past_u_squared_overflow(v, u, exponent):
    """u * u or 2v past the float range made u^2/2v inf or nan, though it is finite:
    the tail read 1.0 (nan through min) or 0.0, and the optimum check inf or nan."""
    env = TailEnvelope(v, 1.0)
    assert sub_poisson_tail(env, u) == pytest.approx(math.exp(exponent), rel=1e-12)
    residual = chernoff_optimum_check(env, u)
    # The optimizer route cancels to -t* u = -2 u^2/2v here, so the residual is about u^2/2v.
    assert residual == pytest.approx(-exponent, rel=1e-12)


def test_chernoff_exponent_keeps_its_bits_below_overflow():
    """Where u * u and 2v are finite the exponent is still (u * u) / 2v, bit for bit."""
    rnd = random.Random(5)
    for _ in range(2000):
        v, k, u = (10 ** rnd.uniform(-100, 100) for _ in range(3))
        env = TailEnvelope(v, k)
        expect = min(1.0, math.exp(-(u * u / (2.0 * v)) * bennet_h(k * u / v)))
        assert sub_poisson_tail(env, u) == expect


def test_u_squared_over_2v_past_float_range():
    """u^2/2v itself past the float range: the tail is 0 and the optimum check, which returned inf, raises."""
    env = TailEnvelope(1.0, 1.0)
    assert sub_poisson_tail(env, 1e200) == 0.0
    with pytest.raises(DomainError, match=r"v = 1.0, k = 1.0, u = 1e\+200 leaves the float range"):
        chernoff_optimum_check(env, 1e200)
