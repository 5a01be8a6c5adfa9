import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from larchpmle import (
    CoeffSpec,
    NoiseMoments,
    ParamSpace,
    Theta,
    c_upper,
    check_moment_conditions,
    coeff,
    coeff_deriv,
    gaussian_moments,
    norm_p,
    tail_variance,
    zeta_tail,
)
from larchpmle.coeffs import ZETA_M3, coeff_weights, deriv_weights, sum_sq
from larchpmle.errors import (
    DivergenceError,
    DomainError,
    MissingMomentError,
    UnsupportedError,
    ValidationError,
)

from conftest import brute_zeta_tail


def farima_pi_deriv_loop(d, J):
    """Reference: d/dd of pi_j by differentiating the recurrence
    pi_j = pi_{j-1} (j - 1 + d) / j one lag at a time."""
    dpi = np.empty(J)
    pi_prev, dpi_prev = 1.0, 0.0         # pi_0 = 1 has zero derivative
    for j in range(1, J + 1):
        f = (j - 1.0 + d) / j
        dpi[j - 1] = dpi_prev * f + pi_prev / j
        pi_prev, dpi_prev = pi_prev * f, dpi[j - 1]
    return dpi


class TestPowerCoeff:
    def test_j1_equals_c(self, spec):
        assert coeff(spec, Theta(0.4, 0.1, 1.0), 1) == 0.1

    def test_power_value(self, spec):
        # 0.2 * 10**(-0.9), evaluated independently at high precision
        got = coeff(spec, Theta(0.1, 0.2, 1.0), 10)
        assert got == pytest.approx(0.025178508235883346, rel=1e-12)

    def test_zero_scale(self, spec):
        for j in (1, 7, 1000):
            assert coeff(spec, Theta(0.3, 0.0, 2.0), j) == 0.0

    def test_bad_lag(self, spec):
        with pytest.raises(DomainError):
            coeff(spec, Theta(0.1, 0.2, 1.0), 0)
        with pytest.raises(DomainError):
            coeff(spec, Theta(0.1, 0.2, 1.0), -3)

    def test_weights_match_scalar(self):
        th = Theta(0.23, 0.4, 1.0)
        for family, max_order_d in (("power", 3), ("farima", 2)):
            spec = CoeffSpec(family, 2000)
            w = coeff_weights(spec, th, 20)
            assert list(w) == [coeff(spec, th, j) for j in range(1, 21)]
            for order_d in range(max_order_d + 1):
                for order_c in (0, 1):
                    if order_d + order_c == 0:
                        continue
                    w = deriv_weights(spec, th, 20, order_d, order_c)
                    assert list(w) == [
                        coeff_deriv(spec, th, j, order_d, order_c)
                        for j in range(1, 21)]


class TestPowerDeriv:
    def test_log1_zero(self, spec):
        assert coeff_deriv(spec, Theta(0.1, 0.2, 1.0), 1, order_d=1) == 0.0

    def test_c_deriv_at_j1(self, spec):
        assert coeff_deriv(spec, Theta(0.1, 0.2, 1.0), 1, order_c=1) == 1.0

    def test_d_deriv_value(self, spec):
        # 0.2 * ln(10) * 10**(-0.9)
        got = coeff_deriv(spec, Theta(0.1, 0.2, 1.0), 10, order_d=1)
        assert got == pytest.approx(0.2 * math.log(10) * 10 ** -0.9, rel=1e-12)
        assert got == pytest.approx(0.0579754, abs=5e-7)

    def test_order_validation(self, spec):
        th = Theta(0.1, 0.2, 1.0)
        with pytest.raises(DomainError):
            coeff_deriv(spec, th, 5, order_d=0, order_c=0)
        with pytest.raises(DomainError):
            coeff_deriv(spec, th, 5, order_c=2)
        with pytest.raises(DomainError):
            coeff_deriv(spec, th, 5, order_d=4)

    def test_finite_difference_consistency(self, spec):
        rng = np.random.default_rng(100)
        h = 1e-5
        for _ in range(40):
            d = rng.uniform(0.02, 0.45)
            c = rng.uniform(0.05, 0.6)
            j = int(rng.integers(1, 10_000))
            k = int(rng.integers(1, 3))
            up, dn = Theta(d + h, c, 1.0), Theta(d - h, c, 1.0)
            if k == 1:
                fd = (coeff(spec, up, j) - coeff(spec, dn, j)) / (2 * h)
            else:
                fd = (coeff_deriv(spec, up, j, order_d=1)
                      - coeff_deriv(spec, dn, j, order_d=1)) / (2 * h)
            got = coeff_deriv(spec, Theta(d, c, 1.0), j, order_d=k)
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_mixed_deriv(self, spec):
        th = Theta(0.2, 0.7, 1.0)
        got = coeff_deriv(spec, th, 9, order_d=2, order_c=1)
        assert got == pytest.approx(math.log(9) ** 2 * 9 ** -0.8, rel=1e-12)


class TestFarima:
    def test_pi_recurrence_vs_gamma(self, farima_spec):
        d, c = 0.3, 0.5
        th = Theta(d, c, 1.0)
        w = coeff_weights(farima_spec, th, 50)
        for j in (1, 2, 10, 50):
            exact = (c * math.gamma(j + d)
                     / (math.gamma(d) * math.gamma(j + 1)))
            assert w[j - 1] == pytest.approx(exact, rel=1e-12)

    def test_first_weight_is_cd(self, farima_spec):
        assert coeff(farima_spec, Theta(0.25, 0.8, 1.0), 1) == \
            pytest.approx(0.8 * 0.25)

    def test_continuity_at_zero(self, farima_spec):
        for j in (1, 3, 17):
            small = coeff(farima_spec, Theta(1e-9, 1.0, 1.0), j)
            assert abs(small) < 1e-8
            assert coeff(farima_spec, Theta(0.0, 1.0, 1.0), j) == 0.0

    def test_deriv_finite_difference(self, farima_spec):
        h = 1e-6
        for d in (0.0, 0.1, 0.35):
            for j in (1, 4, 30):
                fd = (coeff(farima_spec, Theta(d + h, 1.0, 1.0), j)
                      - coeff(farima_spec, Theta(max(d - h, 0.0), 1.0, 1.0), j))
                fd /= (h if d == 0.0 else 2 * h)
                got = coeff_deriv(farima_spec, Theta(d, 1.0, 1.0), j,
                                  order_d=1)
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("d", [0.0, 1e-9, 0.1, 0.25, 0.449])
    def test_deriv_weights_match_recurrence_loop(self, farima_spec, d):
        got = deriv_weights(farima_spec, Theta(d, 1.0, 1.0), 20_000,
                            order_d=1)
        want = farima_pi_deriv_loop(d, 20_000)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_high_order_unsupported(self, farima_spec):
        # order 2 is a central difference of order 1; order 3 is not served
        h = 1e-5
        for d in (0.0, 1e-6, 0.1, 0.25, 0.449):
            th = Theta(d, 0.5, 1.0)
            got = deriv_weights(farima_spec, th, 500, order_d=2)
            fd = (deriv_weights(farima_spec, Theta(d + h, 0.5, 1.0), 500,
                                order_d=1)
                  - deriv_weights(farima_spec, Theta(d - h, 0.5, 1.0), 500,
                                  order_d=1)) / (2 * h)
            assert np.linalg.norm(got - fd) <= 1e-8 * np.linalg.norm(got)
        with pytest.raises(UnsupportedError):
            coeff_deriv(farima_spec, Theta(0.2, 0.5, 1.0), 5, order_d=3)
        with pytest.raises(UnsupportedError):
            deriv_weights(farima_spec, Theta(0.2, 0.5, 1.0), 5, order_d=3)

    def test_norm_vs_brute_sum(self, farima_spec):
        # direct summation of 400k terms plus a crude asymptotic tail
        # (pi_j ~ j^(d-1)/Gamma(d)) brackets the true p-th power
        th = Theta(0.2, 0.5, 1.0)
        J = 400_000
        w = coeff_weights(farima_spec, th, J)
        for p in (2.0, 3.0):
            head = float(np.sum(np.abs(w) ** p))
            tail, _ = brute_zeta_tail(p * (1 - th.d), J + 1, terms=2_000_000)
            tail *= (th.c / math.gamma(th.d)) ** p
            got = norm_p(farima_spec, th, p) ** p
            assert head < got < head + 1.01 * tail
            assert got == pytest.approx(head + tail, rel=1e-6)

    def test_tail_variance_vs_brute(self, farima_spec):
        th = Theta(0.25, 0.4, 1.0)
        J = 500_000
        w = coeff_weights(farima_spec, th, J)
        far_tail, _ = brute_zeta_tail(2 * (1 - th.d), J + 1, terms=2_000_000)
        far_tail *= (th.c / math.gamma(th.d)) ** 2
        for t in (1, 10, 100):
            head = float(np.sum(w[t - 1:] ** 2))
            got = tail_variance(farima_spec, th, t)
            assert got == pytest.approx(head + far_tail, rel=1e-5)


class TestZetaTail:
    def test_basel(self):
        assert zeta_tail(2.0, 1) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_brute_force_cross_check(self):
        for s, t0 in ((1.8, 1), (2.0, 7), (1.2, 100), (3.4, 1)):
            est, err = brute_zeta_tail(s, t0)
            assert abs(zeta_tail(s, t0) - est) <= err + 1e-10 * est

    def test_large_t0_behaves_like_inverse(self):
        t0 = 1_000_000
        assert zeta_tail(2.0, t0) * t0 == pytest.approx(1.0, abs=1e-5)
        vals = [zeta_tail(2.0, t) for t in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_divergent(self):
        with pytest.raises(DivergenceError):
            zeta_tail(1.0, 1)
        with pytest.raises(DivergenceError):
            zeta_tail(0.3, 5)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(1.05, 8.0), t0=st.integers(1, 10_000))
    def test_telescoping(self, s, t0):
        lhs = zeta_tail(s, t0) - zeta_tail(s, t0 + 1)
        assert abs(lhs - t0 ** -s) < 1e-12


class TestParamSpace:
    def test_c_upper_value(self):
        assert c_upper(0.0, 0.9) == pytest.approx(0.9 / math.sqrt(math.pi ** 2 / 6),
                                                  rel=1e-10)
        assert c_upper(0.0, 0.9) == pytest.approx(0.70173, abs=5e-5)

    def test_linear_in_C(self):
        assert c_upper(0.3, 0.4) == pytest.approx(2 * c_upper(0.3, 0.2),
                                                  rel=1e-12)

    def test_defining_identity_brute(self, spec):
        # at c = c_upper(d), the squared weights sum to exactly C^2
        d, C = 0.17, 0.8
        c = c_upper(d, C)
        est, err = brute_zeta_tail(2.0 - 2.0 * d, 1)
        assert c * c * est == pytest.approx(C * C, rel=1e-9)

    def test_divergence_at_half(self):
        with pytest.raises(DivergenceError):
            c_upper(0.5, 0.9)

    def test_validate(self, spec, space):
        space.validate(Theta(0.1, 0.2, 1.0), spec)
        with pytest.raises(ValidationError):
            space.validate(Theta(0.48, 0.2, 1.0), spec)
        with pytest.raises(ValidationError):
            space.validate(Theta(0.1, 0.9, 1.0), spec)
        with pytest.raises(ValidationError):
            space.validate(Theta(0.1, 0.2, 0.01), spec)

    def test_invalid_space(self):
        with pytest.raises(ValidationError):
            ParamSpace(d_u=0.6)
        with pytest.raises(ValidationError):
            ParamSpace(C=1.0)
        with pytest.raises(ValidationError):
            ParamSpace(a_d=0.0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.floats(0.0, 0.45), u=st.floats(0.0, 1.0),
           a=st.floats(0.1, 10.0))
    def test_squared_norm_below_one_on_space(self, d, u, a):
        spec = CoeffSpec("power", 2000)
        space = ParamSpace()
        th = Theta(d, u * space.c_max(d, spec), a)
        assert norm_p(spec, th, 2.0) ** 2 < 1.0
        assert sum_sq(spec, th) < 1.0


class TestNorms:
    def test_zero_scale(self, spec):
        assert norm_p(spec, Theta(0.3, 0.0, 1.0), 2.0) == 0.0

    def test_norm2_at_cupper_is_C(self, spec):
        d, C = 0.22, 0.9
        th = Theta(d, c_upper(d, C), 1.0)
        assert norm_p(spec, th, 2.0) == pytest.approx(C, rel=1e-12)

    def test_norm2_value_brute(self, spec):
        est, err = brute_zeta_tail(1.8, 1)
        got = norm_p(spec, Theta(0.1, 0.2, 1.0), 2.0)
        assert got == pytest.approx(0.2 * math.sqrt(est), rel=1e-9)

    def test_divergent_norm(self, spec):
        # p(1 - d) <= 1 is not summable; d itself may sit outside any space
        with pytest.raises(DivergenceError):
            norm_p(spec, Theta(0.55, 0.2, 1.0), 2.0)
        with pytest.raises(DomainError):
            norm_p(spec, Theta(0.1, 0.2, 1.0), 1.5)


class TestTailVariance:
    def test_full_sum(self, spec):
        th = Theta(0.15, 0.3, 1.0)
        assert tail_variance(spec, th, 1) == \
            pytest.approx(norm_p(spec, th, 2.0) ** 2, rel=1e-12)

    def test_zero_scale(self, spec):
        assert tail_variance(spec, Theta(0.15, 0.0, 1.0), 9) == 0.0

    def test_decreasing_and_bounded(self, spec):
        th = Theta(0.3, 0.4, 1.0)
        vals = [tail_variance(spec, th, t) for t in (1, 2, 5, 20, 100, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] <= norm_p(spec, th, 2.0) ** 2 + 1e-15

    def test_loglog_slope(self, spec):
        th = Theta(0.1, 0.2, 1.0)
        ts = np.unique(np.round(np.logspace(2, 4, 30)).astype(int))
        lv = np.log([tail_variance(spec, th, int(t)) for t in ts])
        slope = np.polyfit(np.log(ts), lv, 1)[0]
        assert slope == pytest.approx(2 * th.d - 1, abs=0.02)


class TestMoments:
    def test_gaussian_even(self):
        nm = gaussian_moments(8)
        assert nm.moment(2) == 1.0
        assert nm.moment(4) == 3.0
        assert nm.moment(6) == 15.0
        assert nm.moment(3) == 0.0

    def test_gaussian_absolute(self):
        nm = gaussian_moments(6)
        assert nm.abs_moment(3) == pytest.approx(2 * math.sqrt(2 / math.pi),
                                                 rel=1e-12)
        assert nm.abs_moment(3) == pytest.approx(1.5957691, abs=5e-8)
        assert nm.abs_moment(5) == pytest.approx(6.38308, abs=5e-6)

    def test_missing_moment(self):
        nm = gaussian_moments(4)
        with pytest.raises(MissingMomentError):
            nm.abs_moment(7)

    def test_inconsistent_moments_rejected(self):
        with pytest.raises(ValidationError):
            NoiseMoments(mu={1: 0.5, 2: 1.0}, mu_abs={})
        with pytest.raises(ValidationError):
            NoiseMoments(mu={2: 1.0, 3: 2.0}, mu_abs={3: 1.0})


class TestMomentConditions:
    def test_zeta_root(self):
        assert ZETA_M3 == pytest.approx((3 + math.sqrt(21)) / 6, rel=1e-15)
        assert ZETA_M3 == pytest.approx(1.2637626, abs=5e-8)
        assert 3 * ZETA_M3 ** 2 - 3 * ZETA_M3 - 1 == pytest.approx(0.0, abs=1e-14)

    def test_zero_scale_all_hold(self, spec):
        nm = gaussian_moments(6)
        rep = check_moment_conditions(spec, Theta(0.2, 0.0, 1.0), nm,
                                      ps=(4, 5, 6))
        assert rep.m3.lhs == 0.0 and rep.m3.holds
        assert all(chk.holds for chk in rep.mp_prime.values())
        assert all(chk.holds for chk in rep.mp_dblprime.values())

    def test_prime_p2_reduces_to_norm(self, spec):
        # (2^2 - 2 - 1)^(1/2) = 1 and |mu|_2^(1/2) = 1
        th = Theta(0.1, 0.2, 1.0)
        rep = check_moment_conditions(spec, th, gaussian_moments(4), ps=(2,))
        assert rep.mp_prime[2].lhs == pytest.approx(norm_p(spec, th, 2.0),
                                                    rel=1e-12)

    def test_holds_iff_lhs_below_one(self, spec):
        nm = gaussian_moments(6)
        rep = check_moment_conditions(spec, Theta(0.1, 0.2, 1.0), nm, ps=(4, 5))
        for chk in ([rep.m3] + list(rep.mp_prime.values())
                    + list(rep.mp_dblprime.values())):
            assert chk.holds == (chk.lhs < 1.0)

    def test_missing_moment_order(self, spec):
        nm = gaussian_moments(4)
        with pytest.raises(MissingMomentError):
            check_moment_conditions(spec, Theta(0.1, 0.2, 1.0), nm, ps=(6,))
