import math

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    LossSpec,
    SimConfig,
    Theta,
    derive_seed,
    estimate,
    landscape,
    loss,
    m_of_n,
    sigma_bar,
    sigma_full,
    simulate,
    tail_variance,
)
from larchpmle.coeffs import _scaled, _unit_rows, coeff_weights, deriv_weights
from larchpmle.errors import DomainError, HistoryError, NumericError, WindowError
from larchpmle.likelihood import PathEvaluator

from conftest import CASE1, CASE1_BETA, _simulate_loop
from nelder_mead import minimize_box


class TestWindow:
    def test_reference_counts_low_beta(self):
        # floor(n^0.599) summand counts at the four study sizes
        counts = [m_of_n(n, 0.599) + 1 for n in (1000, 2500, 5000, 10_000)]
        assert counts == [62, 108, 164, 248]

    def test_reference_counts_high_beta(self):
        counts = [m_of_n(n, 0.799) + 1 for n in (1000, 2500, 5000, 10_000)]
        assert counts == [249, 518, 902, 1570]

    def test_beta_one_full_sample(self):
        assert m_of_n(1000, 1.0) == 999

    def test_degenerate_window(self):
        with pytest.raises(WindowError):
            m_of_n(4, 0.1)
        with pytest.raises(DomainError):
            m_of_n(1, 0.5)
        with pytest.raises(DomainError):
            m_of_n(100, 1.5)


class TestSigmaReconstruction:
    def test_sigma_bar_t1(self, spec):
        assert sigma_bar(spec, Theta(0.1, 0.2, 3.0), [1.0, 2.0], 1) == 3.0

    def test_sigma_bar_zero_scale(self, spec):
        x = np.arange(1.0, 8.0)
        for t in range(1, 9):
            assert sigma_bar(spec, Theta(0.1, 0.0, 2.5), x, t) == 2.5

    def test_sigma_bar_equals_own_recursion(self, spec):
        # exact against the step-by-step recursion (the same dot products);
        # the blocked simulator sums in another order
        cfg = SimConfig(n=60, burn_in=0, J=2000, seed=6)
        s = _simulate_loop(spec, CASE1, cfg)
        fast = simulate(spec, CASE1, cfg)
        for t in (1, 2, 10, 60):
            assert sigma_bar(spec, CASE1, s.x, t) == s.sigma[t - 1]
            assert sigma_bar(spec, CASE1, fast.x, t) == pytest.approx(
                fast.sigma[t - 1], rel=1e-13, abs=0.0)

    def test_sigma_bar_range(self, spec):
        with pytest.raises(DomainError):
            sigma_bar(spec, CASE1, np.zeros(5), 7)

    def test_sigma_full_reproduces_simulator(self, spec):
        cfg = SimConfig(n=50, burn_in=3000, J=2000, seed=7)
        s = _simulate_loop(spec, CASE1, cfg)
        fast = simulate(spec, CASE1, cfg)
        for t in (1, 2, 25, 50):
            assert sigma_full(spec, CASE1, s, t) == s.sigma_obs[t - 1]
            assert sigma_full(spec, CASE1, fast, t) == pytest.approx(
                fast.sigma_obs[t - 1], rel=1e-13, abs=0.0)

    def test_sigma_full_zero_scale(self, spec):
        th = Theta(0.2, 0.0, 1.4)
        s = simulate(spec, th, SimConfig(n=20, burn_in=2000, J=1000, seed=8))
        assert sigma_full(spec, th, s, 5, J=1000) == 1.4

    def test_sigma_full_insufficient_history(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=30, burn_in=100, J=2000, seed=9))
        with pytest.raises(HistoryError):
            sigma_full(spec, CASE1, s, 3, J=2000)

    def test_truncation_gap_matches_tail_variance(self, spec):
        # E[(sigma_full - sigma_bar)^2] at time t equals the weight tail
        # sum over the lags sigma_bar misses, times E[X^2]
        t, J, R = 50, 2000, 400
        gaps, x2 = [], []
        for r in range(R):
            s = simulate(spec, CASE1,
                         SimConfig(n=200, burn_in=4000, J=J,
                                   seed=derive_seed(55, r)))
            gaps.append((sigma_full(spec, CASE1, s, t, J=J)
                         - sigma_bar(spec, CASE1, s.x_obs, t)) ** 2)
            x2.append(np.mean(s.x ** 2))
        expect = ((tail_variance(spec, CASE1, t)
                   - tail_variance(spec, CASE1, J + 1)) * np.mean(x2))
        assert np.mean(gaps) == pytest.approx(expect, rel=0.25)


class TestLossValue:
    def test_zero_scale_closed_form(self, spec):
        rng = np.random.default_rng(12)
        x = 1.3 * rng.standard_normal(400)
        eps = 0.01
        th = Theta(0.3, 0.0, 1.1)
        le = loss(LossSpec("bar", eps), spec, th, x)
        m2 = np.mean(x ** 2)
        expect = (m2 + eps) / (th.a ** 2 + eps) + math.log(th.a ** 2 + eps)
        assert le.value == pytest.approx(expect, rel=1e-12)
        score_a = np.mean(2 * th.a * (1 - (x ** 2 + eps) / (th.a ** 2 + eps))
                          / (th.a ** 2 + eps))
        assert le.score[2] == pytest.approx(score_a, rel=1e-10)
        assert le.score[0] == 0.0

    def test_value_above_log_epsilon(self, spec, case1_path):
        eps = 0.01
        for th in (CASE1, Theta(0.3, 0.4, 0.5), Theta(0.0, 0.0, 5.0)):
            le = loss(LossSpec("bar", eps), spec, th, case1_path.x_obs,
                      derivatives=0)
            assert le.value >= math.log(eps)

    def test_trunc_window_annotation(self, spec, case1_path):
        le = loss(LossSpec("trunc", 0.01, beta=0.599), spec, CASE1,
                  case1_path.x_obs, derivatives=0)
        n = case1_path.n
        m = m_of_n(n, 0.599)
        assert le.t_range == (n - m, n)

    def test_values_match_pointwise_loss(self, spec, case1_path):
        # the fit's grid block against one evaluation per (c, a) pair
        ev = PathEvaluator(LossSpec("trunc", 0.01, beta=0.7), spec,
                           case1_path.x_obs)
        d = 0.15
        v0 = ev.lag_sums(Theta(d, 0.2, 1.0), 0)[0]
        c = np.repeat([0.0, 0.1, 0.3], 3)
        a = np.tile([0.2, 1.0, 4.0], 3)
        ref = [ev(Theta(d, ci, ai), derivatives=2).value
               for ci, ai in zip(c, a)]
        # one value formula: the grid and the Newton steps agree exactly
        np.testing.assert_array_equal(ev.values(v0, c, a), ref)

    def test_values_reject_nonfinite_term(self, spec):
        ev = PathEvaluator(LossSpec("bar", 0.0), spec, np.zeros(30))
        v0 = ev.lag_sums(Theta(0.1, 0.0, 0.0), 0)[0]
        with pytest.raises(NumericError, match="t = 1"):
            ev.values(v0, [0.0, 0.2], [1.0, 0.0])

    def test_full_variant_requires_sample(self, spec):
        with pytest.raises(DomainError):
            loss(LossSpec("full", 0.01), spec, CASE1, np.zeros(50))

    def test_nonfinite_term_reports_t(self, spec):
        x = np.zeros(30)
        with pytest.raises(NumericError, match="t = 1"):
            loss(LossSpec("bar", 0.0), spec, Theta(0.1, 0.0, 0.0), x)

    def test_nonfinite_input_rejected(self, spec):
        x = np.ones(30)
        x[7] = np.nan
        with pytest.raises(NumericError, match="t = 8"):
            loss(LossSpec("bar", 0.01), spec, CASE1, x)

    def test_farima_score_available(self, farima_spec):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        th = Theta(0.2, 0.3, 1.0)
        le = loss(LossSpec("bar", 0.01), farima_spec, th, x, derivatives=2)
        assert np.all(np.isfinite(le.score))
        assert np.all(np.isfinite(le.hessian))
        assert np.abs(le.hessian - le.hessian.T).max() < 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_score_matches_finite_differences(self, spec, case1_path, seed):
        rng = np.random.default_rng(seed)
        th = Theta(rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.5),
                   rng.uniform(0.4, 2.0))
        ev = PathEvaluator(LossSpec("bar", 0.01), spec, case1_path.x_obs)
        le = ev(th)
        h = 1e-6
        for i, e in enumerate(np.eye(3)):
            up = Theta(*(th.as_array() + h * e))
            dn = Theta(*(th.as_array() - h * e))
            fd = (ev(up, derivatives=0).value
                  - ev(dn, derivatives=0).value) / (2 * h)
            assert le.score[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("path_seed", [11, 12, 13, 14, 15])
    def test_hessian_matches_score_differences(self, spec, farima_spec,
                                               path_seed):
        s = simulate(spec, CASE1, SimConfig(n=500, burn_in=2500, J=2000,
                                            seed=path_seed))
        th = Theta(0.15, 0.3, 0.9)
        for family_spec in (spec, farima_spec):
            ev = PathEvaluator(LossSpec("bar", 0.01), family_spec, s.x_obs)
            le = ev(th)
            h = 1e-5
            fd = np.empty((3, 3))
            for i, e in enumerate(np.eye(3)):
                up = Theta(*(th.as_array() + h * e))
                dn = Theta(*(th.as_array() - h * e))
                fd[i] = (ev(up, derivatives=1).score
                         - ev(dn, derivatives=1).score) / (2 * h)
            rel = np.linalg.norm(fd - le.hessian) / np.linalg.norm(le.hessian)
            assert rel < 1e-4

    def test_hessian_symmetric(self, spec, case1_path):
        le = loss(LossSpec("trunc", 0.01, beta=0.7), spec,
                  Theta(0.2, 0.25, 1.2), case1_path.x_obs)
        assert np.abs(le.hessian - le.hessian.T).max() < 1e-12

    def test_mean_score_vanishes_at_truth(self, spec):
        # stationary ergodic martingale differences: mean score ~ 0
        scores = []
        for r in range(60):
            s = simulate(spec, CASE1,
                         SimConfig(n=1000, burn_in=4000, J=2000,
                                   seed=derive_seed(23, r)))
            scores.append(loss(LossSpec("full", 0.01), spec, CASE1, s,
                               derivatives=1).score)
        S = np.array(scores)
        se = S.std(axis=0, ddof=1) / math.sqrt(len(S))
        assert np.all(np.abs(S.mean(axis=0)) < 3 * se)


class TestVariantAgreement:
    def test_bar_full_gap_shrinks_with_n(self, spec):
        means = []
        for n in (500, 2000, 8000):
            gaps = []
            for r in range(40):
                s = simulate(spec, CASE1,
                             SimConfig(n=n, burn_in=10_000, J=2000,
                                       seed=derive_seed(101, r)))
                lb = loss(LossSpec("bar", 0.01), spec, CASE1, s.x_obs,
                          derivatives=0)
                lf = loss(LossSpec("full", 0.01), spec, CASE1, s,
                          derivatives=0)
                gaps.append(abs(lb.value - lf.value))
            means.append(np.mean(gaps))
        assert means[0] > means[1] > means[2]


class TestLandscape:
    def test_single_point(self, spec, case1_path):
        rows = landscape(LossSpec("trunc", 0.01, beta=0.7), spec, 0.1, 1.0,
                         case1_path.x_obs, [0.2], [0.01])
        assert len(rows) == 1
        assert rows[0][:2] == (0.01, 0.2)

    def test_large_epsilon_flattens(self, spec):
        s = simulate(spec, Theta(0.4, 0.1, 1.0),
                     SimConfig(n=2000, burn_in=10_000, J=2000, seed=0))
        grid = np.linspace(0.0, 0.45, 91)
        rows = landscape(LossSpec("trunc", 0.01, beta=0.599), spec, 0.1, 1.0,
                         s.x_obs, grid, [0.01, 10.0])
        spread = {}
        for eps in (0.01, 10.0):
            v = np.array([r[2] for r in rows if r[0] == eps])
            spread[eps] = v.max() - v.min()
        assert spread[10.0] < spread[0.01]

    def test_minima_count_monotone_in_epsilon(self, spec):
        # smaller epsilon never smooths minima away (epsilon = 0 included)
        s = simulate(spec, Theta(0.4, 0.1, 1.0),
                     SimConfig(n=2000, burn_in=10_000, J=2000, seed=0))
        grid = np.linspace(0.0, 0.45, 181)
        rows = landscape(LossSpec("trunc", 0.01, beta=0.599), spec, 0.1, 1.0,
                         s.x_obs, grid, [0.01, 0.001, 0.0001, 0.0])
        counts = []
        for eps in (0.01, 0.001, 0.0001, 0.0):
            v = np.array([r[2] for r in rows if r[0] == eps])
            counts.append(sum(1 for i in range(1, len(v) - 1)
                              if v[i] < v[i - 1] and v[i] < v[i + 1]))
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rows_match_pointwise_loss(self, spec, case1_path):
        # epsilon outer, d inner; each d's lag sums serve every epsilon
        lspec = LossSpec("trunc", 0.01, beta=0.7)
        grid, eps_list = [0.0, 0.15, 0.3], [0.01, 0.001, 0.0]
        rows = landscape(lspec, spec, 0.1, 1.0, case1_path.x_obs, grid,
                         eps_list)
        ev = PathEvaluator(lspec, spec, case1_path.x_obs)
        assert rows == [(e, d, ev(Theta(d, 0.1, 1.0), e, 0).value)
                        for e in eps_list for d in grid]

    def test_empty_grid_rejected(self, spec, case1_path):
        with pytest.raises(DomainError):
            landscape(LossSpec("bar", 0.01), spec, 0.1, 1.0,
                      case1_path.x_obs, [], [0.01])


class TestLossSpecValidation:
    def test_variants(self):
        LossSpec("bar", 0.01)
        LossSpec("full", 0.01, J=500)
        LossSpec("trunc", 0.01, beta=0.5)
        with pytest.raises(DomainError):
            LossSpec("exact", 0.01)
        with pytest.raises(DomainError):
            LossSpec("trunc", 0.01)             # beta missing
        with pytest.raises(DomainError):
            LossSpec("bar", -0.5)
        with pytest.raises(DomainError):
            LossSpec("full", 0.01, J=0)


TABLE_SPECS = [LossSpec("trunc", 0.01, beta=0.799),
               LossSpec("trunc", 0.01, beta=0.599),
               LossSpec("bar", 0.01)]
TABLE_IDS = ["trunc0.799", "trunc0.599", "bar"]


@pytest.fixture(scope="module")
def table_samples(spec):
    return {n: simulate(spec, CASE1, SimConfig(n=n, burn_in=10_000, J=2000,
                                               seed=2024))
            for n in (1000, 10_000, 100_000)}


@pytest.fixture(scope="module")
def table_paths(table_samples):
    return {n: table_samples[n].x_obs for n in (1000, 10_000)}


def full_size_fft_sums(lspec, spec, sample, d, order=0):
    """Window lag sums of order 0 or 1 in d by one convolution of the whole
    stored series at a power-of-two length that holds it all: the oracle
    for the evaluator's window-sized transforms and its table."""
    full = lspec.variant == "full"
    x = sample.x if full else sample.x_obs
    J = sample.config.J if full else sample.n - 1
    unit = Theta(d, 1.0, 1.0)
    kernel = (deriv_weights(spec, unit, J, order_d=1) if order
              else coeff_weights(spec, unit, J))
    nfft = 1 << (len(x) + J).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(kernel, nfft),
                        nfft)
    n = sample.n
    t_first = n - m_of_n(n, lspec.beta) if lspec.variant == "trunc" else 1
    idx = (sample.first_retained if full else 0) + np.arange(t_first, n + 1) - 2
    return np.where(idx >= 0, conv[np.maximum(idx, 0)], 0.0)


class TestChebyshevTable:
    """The d-interval lag-sum table against the FFT path as oracle."""

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("lspec", TABLE_SPECS, ids=TABLE_IDS)
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_agrees_with_fft(self, family, lspec, n, table_paths):
        spec = CoeffSpec(family, 2000)
        x = table_paths[n]
        table = PathEvaluator(lspec, spec, x, d_range=(0.0, 0.45))
        fft = PathEvaluator(lspec, spec, x)
        pairs = [(table.lag_sums(Theta(d, 0.2, 1.0), 0)[0],
                  fft.lag_sums(Theta(d, 0.2, 1.0), 0)[0])
                 for d in np.linspace(0.0, 0.45, 41)]
        scale = max(np.linalg.norm(ref) for _, ref in pairs)
        for got, ref in pairs:
            # farima weights vanish at d = 0, where the FFT sums are exactly
            # zero; there the error is measured against the largest sums
            norm = np.linalg.norm(ref) or scale
            assert np.linalg.norm(got - ref) <= 1e-12 * norm

    def test_value_inside_range_runs_no_transform(self, spec, table_paths):
        ev = PathEvaluator(TABLE_SPECS[0], spec, table_paths[1000],
                           d_range=(0.0, 0.45))

        def no_transform(kernel):
            raise AssertionError("FFT path used inside the table range")

        ev._convolve = no_transform
        for d in (0.0, 0.1, 0.45):
            assert np.isfinite(ev(Theta(d, 0.2, 1.0), derivatives=0).value)

    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_fft_path_unchanged_elsewhere(self, family, table_paths):
        # inside the range every derivative order comes from the table
        # (within the gates of test_derivative_rows_match_fft); d outside
        # the range and evaluators without a range return exactly what the
        # FFT path returns
        spec = CoeffSpec(family, 2000)
        x = table_paths[1000]
        lspec = TABLE_SPECS[0]
        table = PathEvaluator(lspec, spec, x, d_range=(0.05, 0.3))
        fft = PathEvaluator(lspec, spec, x)
        for order in (1, 2):
            th = Theta(0.1, 0.2, 1.0)
            got, ref = table.lag_sums(th, order), fft.lag_sums(th, order)
            for k, tol in zip(range(order + 1), (1e-12, 1e-12, 1e-9)):
                assert (np.linalg.norm(got[k] - ref[k])
                        <= tol * np.linalg.norm(ref[k]))
            assert got[order + 1:] == ref[order + 1:] == (None,) * (2 - order)
        for d, order in [(0.0, 0), (0.4, 0), (0.0, 1), (0.4, 1)]:
            th = Theta(d, 0.2, 1.0)
            for got, ref in zip(table.lag_sums(th, order),
                                fft.lag_sums(th, order)):
                assert (got is None) == (ref is None)
                assert got is None or np.array_equal(got, ref)
        # the FFT rows are the transforms of the unit rows, scaled once
        for d in (0.0, 0.1, 0.3):
            for order in (1, 2):
                rows = np.array([fft._convolve(kernel) for kernel
                                 in _unit_rows(family, d, fft.J, order)])
                want = _scaled(family, d, rows)
                got = fft.lag_sums(Theta(d, 0.2, 1.0), order)
                for k in range(order + 1):
                    assert np.array_equal(got[k], want[k])

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    @pytest.mark.parametrize("variant", ["trunc", "bar", "full"])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_value_rows_match_full_size_fft(self, family, variant, n,
                                            table_samples):
        # the table's value rows, and the window-sized FFT path, against a
        # transform of the whole series; farima's relative accuracy holds
        # down to d = 1e-6 because its table holds the sums of pi_j / d
        spec = CoeffSpec(family, 2000)
        lspec = (LossSpec("trunc", 0.01, beta=CASE1_BETA)
                 if variant == "trunc" else LossSpec(variant, 0.01))
        sample = table_samples[n]
        data = sample if variant == "full" else sample.x_obs
        table = PathEvaluator(lspec, spec, data, d_range=(0.0, 0.45))
        fft = PathEvaluator(lspec, spec, data)
        ds = [1e-6, 1e-4, 0.01125] + list(np.linspace(0.05, 0.45, 9))
        for d in ds:
            ref = full_size_fft_sums(lspec, spec, sample, d)
            th = Theta(d, 0.2, 1.0)
            for ev in (table, fft):
                got = ev.lag_sums(th, 0)[0]
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    @pytest.mark.parametrize("lspec", TABLE_SPECS, ids=TABLE_IDS)
    def test_derivative_rows_match_fft(self, spec, farima_spec, lspec, n,
                                       table_samples):
        # term-by-term derivatives of each family's table against the FFT
        # rows of the weights' first and second d-derivatives, interval
        # ends included.  The farima weights come from a running product
        # whose rounding grows like sqrt(j); the table's derivative
        # amplifies it to about 1.1e-12 in v1 at n = 10^5, where the FFT
        # rows stay within 2e-13 of a long-double direct sum.
        x = table_samples[n].x_obs
        for family_spec, v1_tol in ((spec, 1e-12), (farima_spec, 2e-12)):
            table = PathEvaluator(lspec, family_spec, x, d_range=(0.0, 0.45))
            fft = PathEvaluator(lspec, family_spec, x)
            for d in np.linspace(0.0, 0.45, 10):
                th = Theta(d, 0.2, 1.0)
                got, ref = table.lag_sums(th, 2), fft.lag_sums(th, 2)
                for k, tol in ((0, 1e-12), (1, v1_tol), (2, 1e-9)):
                    assert (np.linalg.norm(got[k] - ref[k])
                            <= tol * np.linalg.norm(ref[k]))

    def test_farima_second_derivative_row(self, farima_spec, table_paths):
        # the table's v2 against a central difference of the FFT v1
        x = table_paths[1000]
        lspec = TABLE_SPECS[0]
        table = PathEvaluator(lspec, farima_spec, x, d_range=(0.0, 0.45))
        fft = PathEvaluator(lspec, farima_spec, x)
        h = 1e-4
        for d in (0.05, 0.1, 0.2, 0.3, 0.4):
            v2 = table.lag_sums(Theta(d, 0.2, 1.0), 2)[2]
            fd = (fft.lag_sums(Theta(d + h, 0.2, 1.0), 1)[1]
                  - fft.lag_sums(Theta(d - h, 0.2, 1.0), 1)[1]) / (2 * h)
            assert np.linalg.norm(v2 - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_derivatives_inside_range_run_no_transform(self, family,
                                                       table_paths):
        ev = PathEvaluator(TABLE_SPECS[0], CoeffSpec(family, 2000),
                           table_paths[1000], d_range=(0.0, 0.45))

        def no_transform(kernel):
            raise AssertionError("FFT path used inside the table range")

        ev._convolve = no_transform
        for d in (0.0, 0.1, 0.45):
            le = ev(Theta(d, 0.2, 1.0), derivatives=2)
            assert np.all(np.isfinite(le.hessian))

    def test_invalid_range_rejected(self, spec, case1_path):
        for bad in ((0.3, 0.3), (0.4, 0.1), (0.0, math.inf)):
            with pytest.raises(DomainError):
                PathEvaluator(LossSpec("bar", 0.01), spec, case1_path.x_obs,
                              d_range=bad)

    @pytest.mark.parametrize("r", range(5))
    def test_estimate_matches_fft_objective(self, spec, space, r):
        # the study's profile fit of d, with the table, against the same
        # search on an FFT-only objective
        s = simulate(spec, CASE1, SimConfig(n=10_000, burn_in=10_000, J=2000,
                                            seed=derive_seed(42, r)))
        lspec = LossSpec("trunc", 0.01, beta=CASE1_BETA)
        fix = {"c": CASE1.c, "a": CASE1.a}
        res = estimate(lspec, spec, s.x_obs, space=space, fix=fix)
        fft = PathEvaluator(lspec, spec, s.x_obs)
        ref = minimize_box(lambda th: fft(th, derivatives=0).value, space,
                           spec=spec, fix=fix)
        assert abs(res.theta_hat.d - ref.theta_hat.d) <= 1e-4
