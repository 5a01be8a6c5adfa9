import math
from dataclasses import replace
from fractions import Fraction

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
    simulate,
    tail_variance,
)
from larchpmle.coeffs import _scaled, _unit_rows
from larchpmle.errors import DomainError, NumericError, WindowError
from larchpmle.likelihood import (
    _CHEB_DER,
    PathEvaluator,
    _fft_size,
    _kernel_spectra,
)

from conftest import CASE1, CASE1_BETA, _simulate_loop
from nelder_mead import minimize_box
from oracles import sigma_bar, sigma_full

# the observed-past loss averaged over the whole sample (beta = 1): its
# sigma is the oracles' sigma_bar, and test ids name it "bar"
BAR = LossSpec("trunc", 0.01, beta=1.0)
# the loss of each test-id label
LSPECS = {"bar": BAR, "trunc": LossSpec("trunc", 0.01, beta=CASE1_BETA),
          "full": LossSpec("full", 0.01)}


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

    def test_one_observation_only_for_full(self, spec):
        # "full" sums the sample's stored lags, as the sandwich's one-point
        # blocks do; "trunc" sums J = n - 1 lags of the observations and
        # needs two
        s = simulate(spec, CASE1, SimConfig(n=1, burn_in=2000, J=2000,
                                            seed=3))
        eps = 0.01
        ev = PathEvaluator(LossSpec("full", eps), spec, s)
        res = ev(CASE1)
        s2e = sigma_full(spec, CASE1, s, 1) ** 2 + eps
        assert (ev.t_first, ev.w) == (1, 1)
        assert res.value == pytest.approx(
            (s.x_obs[0] ** 2 + eps) / s2e + math.log(s2e), rel=1e-12)
        with pytest.raises(WindowError):
            PathEvaluator(LossSpec("trunc", eps, beta=1.0), spec, s.x_obs)


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

    @pytest.mark.parametrize("J", [2000, 700])
    @pytest.mark.parametrize("variant, burn_in", [
        pytest.param("bar", None, id="bar"),
        pytest.param("full", None, id="full"),
        pytest.param("full", 1, id="full-burn1")])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_evaluator_sigma_matches_direct_sums(self, family, variant,
                                                 burn_in, J):
        # sigma = a + c v0 from the evaluator's lag sums at every point of
        # a path whose burn-in holds exactly the J lags of its first point,
        # or one of them (full-burn1), the others reading the empty past
        spec = CoeffSpec(family, J)
        s = simulate(spec, CASE1, SimConfig(
            n=3000, burn_in=J if burn_in is None else burn_in, J=J, seed=16))
        data = s if variant == "full" else s.x_obs
        v0 = PathEvaluator(LSPECS[variant], spec, data).lag_sums(CASE1.d, 0)[0]
        got = CASE1.a + CASE1.c * v0
        if variant == "full":
            want = [sigma_full(spec, CASE1, s, t) for t in range(1, 3001)]
        else:
            want = [sigma_bar(spec, CASE1, s.x_obs, t) for t in range(1, 3001)]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

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
        le = loss(LossSpec("trunc", eps, beta=1.0), spec, th, x)
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
            le = loss(LossSpec("trunc", eps, beta=1.0), spec, th,
                      case1_path.x_obs, derivatives=0)
            assert le.value >= math.log(eps)

    def test_trunc_window_annotation(self, spec, case1_path):
        ev = PathEvaluator(LossSpec("trunc", 0.01, beta=0.599), spec,
                           case1_path.x_obs)
        n = case1_path.n
        m = m_of_n(n, 0.599)
        assert (ev.t_first, ev.w) == (n - m, m + 1)

    def test_full_beta_averages_last_points(self, spec, case1_path):
        # beta windows "full" as it windows "trunc": the last floor(n^beta)
        # points, each sigma from the stored history
        eps, n = 0.01, case1_path.n
        w = math.floor(n ** 0.5)
        ev = PathEvaluator(LossSpec("full", eps, beta=0.5), spec, case1_path)
        assert (ev.t_first, ev.w) == (n - w + 1, w)
        terms = []
        for t in range(n - w + 1, n + 1):
            s2e = sigma_full(spec, CASE1, case1_path, t) ** 2 + eps
            terms.append((case1_path.x_obs[t - 1] ** 2 + eps) / s2e
                         + math.log(s2e))
        assert ev(CASE1, derivatives=0).value == pytest.approx(
            np.mean(terms), rel=1e-12)
        # the same terms as the whole-sample loss of a block of those
        # points, bit for bit
        block = _window_view(case1_path, n - w + 1, n)
        assert ev(CASE1).value == loss(LossSpec("full", eps), spec, CASE1,
                                       block).value

    def test_values_match_pointwise_loss(self, spec, case1_path):
        # the fit's grid block against one evaluation per (c, a) pair
        ev = PathEvaluator(LossSpec("trunc", 0.01, beta=0.7), spec,
                           case1_path.x_obs)
        d = 0.15
        v0 = ev.lag_sums(d, 0)[0]
        c = np.repeat([0.0, 0.1, 0.3], 3)
        a = np.tile([0.2, 1.0, 4.0], 3)
        ref = [ev(Theta(d, ci, ai), derivatives=2).value
               for ci, ai in zip(c, a)]
        # one value formula: the grid and the Newton steps agree exactly
        np.testing.assert_array_equal(ev.values(v0, c, a), ref)

    def test_values_reject_nonfinite_term(self, spec):
        ev = PathEvaluator(replace(BAR, epsilon=0.0), spec, np.zeros(30))
        v0 = ev.lag_sums(0.1, 0)[0]
        with pytest.raises(NumericError, match="t = 1"):
            ev.values(v0, [0.0, 0.2], [1.0, 0.0])

    def test_full_variant_requires_sample(self, spec):
        with pytest.raises(DomainError):
            loss(LossSpec("full", 0.01), spec, CASE1, np.zeros(50))

    def test_nonfinite_term_reports_t(self, spec):
        x = np.zeros(30)
        with pytest.raises(NumericError, match="t = 1"):
            loss(replace(BAR, epsilon=0.0), spec, Theta(0.1, 0.0, 0.0), x)

    def test_nonfinite_input_rejected(self, spec):
        x = np.ones(30)
        x[7] = np.nan
        with pytest.raises(NumericError, match="t = 8"):
            loss(BAR, spec, CASE1, x)

    def test_nonfinite_observation_in_full_window_lags(self, spec):
        # a "full" evaluator checks the observations its window reaches,
        # its points and their J lags, and no others
        s = simulate(spec, CASE1, SimConfig(n=600, burn_in=50, J=50, seed=8))
        x = s.x.copy()
        x[s.config.burn_in + 99] = np.inf
        bad = replace(s, x=x)
        for window in ((100, 300), (150, 300)):
            with pytest.raises(NumericError, match="t = 100"):
                _beta_window(spec, bad, *window)
        for window in ((151, 300), (10, 99)):
            ev = _beta_window(spec, bad, *window)
            assert np.all(np.isfinite(ev.lag_sums(CASE1.d, 0)[0]))

    def test_nonfinite_presample_history_rejected(self, spec):
        # the stored history before t = 1 reaches the window's first J
        # points: a bad value there is named by its step (t <= 0) when the
        # evaluator is built, before any transform spreads it
        s = simulate(spec, CASE1, SimConfig(n=300, burn_in=50, J=50, seed=8))
        x = s.x.copy()
        x[s.config.burn_in - 10] = np.inf
        with pytest.raises(NumericError, match="t = -9"):
            PathEvaluator(LossSpec("full", 0.01), spec, replace(s, x=x))
        # a window whose lags stop short of it never reads that value
        ev = _beta_window(spec, replace(s, x=x), 42, 300)
        assert np.all(np.isfinite(ev.lag_sums(CASE1.d, 0)[0]))

    def test_farima_score_available(self, farima_spec):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        th = Theta(0.2, 0.3, 1.0)
        le = loss(BAR, farima_spec, th, x, derivatives=2)
        assert np.all(np.isfinite(le.score))
        assert np.all(np.isfinite(le.hessian))
        assert np.abs(le.hessian - le.hessian.T).max() < 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_score_matches_finite_differences(self, spec, case1_path, seed):
        rng = np.random.default_rng(seed)
        th = Theta(rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.5),
                   rng.uniform(0.4, 2.0))
        ev = PathEvaluator(BAR, spec, case1_path.x_obs)
        le = ev(th)
        h = 1e-6
        for i, e in enumerate(np.eye(3)):
            up = Theta(*(th.as_array() + h * e))
            dn = Theta(*(th.as_array() - h * e))
            fd = (ev(up, derivatives=0).value
                  - ev(dn, derivatives=0).value) / (2 * h)
            assert le.score[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("derivatives", [3, -1, 2.5])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_order_outside_0_to_2_rejected(self, family, derivatives,
                                           case1_path):
        # on the FFT path and on the table alike
        spec, lspec = CoeffSpec(family, 2000), BAR
        with pytest.raises(DomainError):
            loss(lspec, spec, CASE1, case1_path.x_obs, derivatives=derivatives)
        table = PathEvaluator(lspec, spec, case1_path.x_obs,
                              d_range=(0.0, 0.45))
        with pytest.raises(DomainError):
            table(CASE1, derivatives=derivatives)

    @pytest.mark.parametrize("path_seed", [11, 12, 13, 14, 15])
    def test_hessian_matches_score_differences(self, spec, farima_spec,
                                               path_seed):
        s = simulate(spec, CASE1, SimConfig(n=500, burn_in=2500, J=2000,
                                            seed=path_seed))
        th = Theta(0.15, 0.3, 0.9)
        for family_spec in (spec, farima_spec):
            ev = PathEvaluator(BAR, family_spec, s.x_obs)
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
                lb = loss(BAR, spec, CASE1, s.x_obs, derivatives=0)
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
        # epsilon outer, d inner; each value is that of the loss spec at
        # its epsilon, whose own epsilon (here 0.5) is not used
        lspec = LossSpec("trunc", 0.5, beta=0.7)
        grid, eps_list = [0.0, 0.15, 0.3], [0.01, 0.001, 0.0]
        rows = landscape(lspec, spec, 0.1, 1.0, case1_path.x_obs, grid,
                         eps_list)
        assert rows == [(e, d, loss(replace(lspec, epsilon=e), spec,
                                    Theta(d, 0.1, 1.0), case1_path.x_obs,
                                    derivatives=0).value)
                        for e in eps_list for d in grid]

    def test_empty_grid_rejected(self, spec, case1_path):
        with pytest.raises(DomainError):
            landscape(BAR, spec, 0.1, 1.0, case1_path.x_obs, [], [0.01])

    @pytest.mark.parametrize("eps", [-1.0, math.inf, math.nan])
    def test_bad_epsilon_rejected(self, spec, case1_path, eps):
        # by the loss spec that each epsilon of the list makes
        with pytest.raises(DomainError, match="epsilon"):
            landscape(BAR, spec, 0.1, 1.0, case1_path.x_obs, [0.2],
                      [0.01, eps])


class TestLossSpecValidation:
    def test_variants(self):
        LossSpec("full", 0.01, J=500)
        LossSpec("trunc", 0.01, beta=0.5)
        # the whole-sample observed-past loss is "trunc" at beta = 1
        for variant in ("exact", "bar"):
            with pytest.raises(DomainError):
                LossSpec(variant, 0.01)
        with pytest.raises(DomainError):
            LossSpec("trunc", 0.01)             # beta missing
        with pytest.raises(DomainError):
            LossSpec("trunc", -0.5, beta=1.0)
        with pytest.raises(DomainError):
            LossSpec("full", 0.01, J=0)

    def test_beta_outside_unit_interval_rejected(self):
        for variant in ("full", "trunc"):
            for beta in (1.5, 0.0, -0.5, math.nan):
                with pytest.raises(DomainError, match="beta"):
                    LossSpec(variant, 0.01, beta=beta)

    def test_J_rejected_for_trunc(self):
        # "trunc" reads no stored history, so a J would change nothing
        with pytest.raises(DomainError, match="J"):
            LossSpec("trunc", 0.01, beta=0.8, J=5)


TABLE_SPECS = [LossSpec("trunc", 0.01, beta=0.799),
               LossSpec("trunc", 0.01, beta=0.599), BAR]
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
    """Window lag sums of order 0, 1 or 2 in d by one convolution of the
    whole stored series at a power-of-two length that holds it all: the
    oracle for the evaluator's window-sized transforms and its table."""
    full = lspec.variant == "full"
    x = sample.x if full else sample.x_obs
    J = sample.config.J if full else sample.n - 1
    kernel = _scaled(spec.family, d,
                     _unit_rows(spec.family, d, J, order))[order]
    nfft = 1 << (len(x) + J).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(kernel, nfft),
                        nfft)
    n = sample.n
    t_first = n - m_of_n(n, lspec.beta) if lspec.variant == "trunc" else 1
    idx = (sample.config.burn_in if full else 0) + np.arange(t_first, n + 1) - 2
    return np.where(idx >= 0, conv[np.maximum(idx, 0)], 0.0)


# long "full" windows, each summed by one transform of the J + w - 1 values
# that reach it: paths of k P + extra points, P = _fft_size(16 J) - J + 1
# (ids J-k-extra-(k + extra)), up to 11701 points at J = 50 and 61539 at
# J = 2000.  The table paths' windows are shorter.
LONG_CASES = [
    pytest.param("full", J, k * (_fft_size(16 * J) - J + 1) + extra,
                 id=f"{J}-{k}-{extra}-{k + extra}")
    for J, k, extra in [(50, 1, 0), (50, 1, 1), (50, 2, 0), (50, 12, 0),
                        (50, 12, 1), (2000, 2, 0), (2000, 2, 1)]]
TABLE_CASES = [
    pytest.param(variant, None, n, id=f"{variant}-{n}")
    for variant, n in [("bar", 1000), ("bar", 10_000), ("bar", 100_000),
                       ("trunc", 10_000), ("trunc", 100_000),
                       ("full", 1000), ("full", 10_000)]]


def _window_view(sample, t_first, t_last):
    """The sample's points t_first..t_last (1-based) as a sample of their
    own whose history is the simulation's J values before t_first, the way
    the sandwich cuts its blocks."""
    J, burn_in = sample.config.J, sample.config.burn_in
    cut = slice(burn_in + t_first - 1 - J, burn_in + t_last)
    config = replace(sample.config, n=t_last - t_first + 1, burn_in=J)
    return replace(sample, config=config,
                   **{name: getattr(sample, name)[cut]
                      for name in ("x", "sigma", "eps")})


def _beta_window(spec, sample, t_first, t_last):
    """A "full" evaluator of the sample's points t_first..t_last (1-based),
    as the last floor(t_last^beta) points of its first t_last points."""
    prefix = replace(sample, **{
        name: getattr(sample, name)[: sample.config.burn_in + t_last]
        for name in ("x", "sigma", "eps")})
    # floor(t_last^beta) = t_last - t_first + 1, half a point clear of the
    # neighbouring counts
    beta = math.log(t_last - t_first + 1.5) / math.log(t_last)
    ev = PathEvaluator(LossSpec("full", 0.01, beta=beta), spec, prefix)
    assert (ev.t_first, ev.n) == (t_first, t_last)
    return ev


def _zero_past(sample):
    """The sample's observations alone, burn-in 0: before them lies the
    empty past."""
    return replace(sample, config=replace(sample.config, burn_in=0),
                   **{name: getattr(sample, name)[sample.config.burn_in:]
                      for name in ("x", "sigma", "eps")})


def _case(family, variant, J, n, table_samples):
    """(loss spec, coefficient spec, sample) of a LONG_CASES or TABLE_CASES
    entry: a table path, or a "full" path with J lags of burn-in."""
    spec = CoeffSpec(family, 2000)
    if J is None:
        sample = table_samples[n]
    else:
        sample = simulate(spec, CASE1, SimConfig(
            n=n, burn_in=J, J=J, seed=derive_seed(n, J)))
    return LSPECS[variant], spec, sample


class TestSegmentedTransform:
    """Lag sums of each window by one transform of the J + w - 1 values
    that reach it, long windows included (the class is named for the
    overlap-save segments these once took)."""

    @pytest.mark.parametrize("variant, J, n", LONG_CASES + TABLE_CASES)
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_full_rows_match_full_size_fft(self, family, variant, J, n,
                                           table_samples):
        lspec, spec, sample = _case(family, variant, J, n, table_samples)
        ev = PathEvaluator(lspec, spec,
                           sample if variant == "full" else sample.x_obs)
        for d in (0.05, 0.25, 0.45):
            rows = ev.lag_sums(d, 2)
            for order, got in enumerate(rows):
                ref = full_size_fft_sums(lspec, spec, sample, d, order)
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    # the table paths, a sandwich block (J = 2000, w = 15625 after J lags
    # of burn-in) and the J = 50 window of LONG_CASES that spans 13
    # stretches
    @pytest.mark.parametrize("variant, J, n", TABLE_CASES + [
        pytest.param("full", 2000, 15_625, id="block-2000-15625"),
        LONG_CASES[-3]])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_one_transform_rows_unchanged(self, family, variant, J, n,
                                          table_samples):
        # the rows are those of the written-out formula, bit for bit
        lspec, spec, sample = _case(family, variant, J, n, table_samples)
        if variant == "full":
            ev = PathEvaluator(lspec, spec, sample)
            J, t_first = sample.config.J, 1
            history, first = sample.x, sample.config.burn_in
        else:
            ev = PathEvaluator(lspec, spec, sample.x_obs)
            J = n - 1
            t_first = n - m_of_n(n, CASE1_BETA) if variant == "trunc" else 1
            history, first = np.concatenate([np.zeros(J), sample.x_obs]), J
        w = n - t_first + 1
        start = first + t_first - 1 - J
        nfft = _fft_size(J + w - 1)
        # both spectra are held in names, as the evaluator holds them:
        # numpy may compute a product into a temporary operand, and so
        # with the operands swapped, which can round differently
        spectrum = np.fft.rfft(history[start: start + J + w - 1], nfft)
        for d in (0.0, 0.1, 0.3):
            rows = []
            for kernel in _unit_rows(family, d, J, 2):
                kernel_spectrum = np.fft.rfft(kernel, nfft)
                conv = np.fft.irfft(spectrum * kernel_spectrum, nfft)
                rows.append(conv[J - 1: J - 1 + w])
            want = _scaled(family, d, np.array(rows))
            got = ev.lag_sums(d, 2)
            for k in range(3):
                assert np.array_equal(got[k], want[k])

    @pytest.mark.parametrize("variant", ["bar", "trunc"])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_observed_past_is_zero_filled_full(self, family, variant,
                                               table_samples):
        # "trunc" is the "full" variant with J = n - 1 lags of the
        # observations alone, whose lags before t = 1 read the empty past,
        # bit for bit, t = 1 included
        spec, lspec = CoeffSpec(family, 2000), LSPECS[variant]
        sample = table_samples[10_000]
        n = sample.n
        ev = PathEvaluator(lspec, spec, sample.x_obs)
        full = PathEvaluator(LossSpec("full", 0.01, beta=lspec.beta,
                                      J=n - 1), spec, _zero_past(sample))
        for d in (0.0, 0.1, 0.3):
            for got, want in zip(ev.lag_sums(d, 2), full.lag_sums(d, 2)):
                assert np.array_equal(got, want)


class TestKernelSpectra:
    def test_evaluators_of_one_length_share_kernel_spectra(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=4000, burn_in=2000, seed=9))
        lspec = LossSpec("full", 0.0)
        first = PathEvaluator(lspec, spec, _window_view(s, 1, 2000))
        second = PathEvaluator(lspec, spec, _window_view(s, 2001, 4000))
        assert first._nfft == second._nfft
        first.lag_sums(CASE1.d, 2)
        hits = _kernel_spectra.cache_info().hits
        rows = second.lag_sums(CASE1.d, 2)
        assert _kernel_spectra.cache_info().hits == hits + 1
        _kernel_spectra.cache_clear()
        for got, want in zip(rows, second.lag_sums(CASE1.d, 2)):
            assert np.array_equal(got, want)
        assert _kernel_spectra.cache_info().hits == 0
        spectra = _kernel_spectra(spec.family, CASE1.d, second.J, 2,
                                  second._nfft)
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0] = 0.0


class TestChebyshevTable:
    """The d-interval lag-sum table against the FFT path as oracle."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_derivative_maps_are_exact(self, m):
        # chebder's recurrence in rational arithmetic is the oracle: the
        # maps equal it exactly, zero-padded, and numpy's chebder (which
        # rounds) within 1e-12
        from numpy.polynomial.chebyshev import chebder
        K = _CHEB_DER.shape[1]
        c = [[Fraction(int(i == k)) for k in range(K)] for i in range(K)]
        for _ in range(m):
            n = len(c) - 1
            der = [None] * n
            for j in range(n, 0, -1):
                der[j - 1] = [2 * j * x for x in c[j]]
                if j > 2:
                    c[j - 2] = [a + Fraction(j, j - 2) * b
                                for a, b in zip(c[j - 2], c[j])]
            der[0] = [x / 2 for x in der[0]]
            c = der
        exact = np.array(c, dtype=float)
        assert np.array_equal(_CHEB_DER[m, :K - m], exact)
        assert not _CHEB_DER[m, K - m:].any()
        assert np.abs(chebder(np.eye(K), m) - exact).max() <= 1e-12

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("lspec", TABLE_SPECS, ids=TABLE_IDS)
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_agrees_with_fft(self, family, lspec, n, table_paths):
        spec = CoeffSpec(family, 2000)
        x = table_paths[n]
        table = PathEvaluator(lspec, spec, x, d_range=(0.0, 0.45))
        fft = PathEvaluator(lspec, spec, x)
        pairs = [(table.lag_sums(d, 0)[0], fft.lag_sums(d, 0)[0])
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
            got, ref = table.lag_sums(0.1, order), fft.lag_sums(0.1, order)
            for k, tol in zip(range(order + 1), (1e-12, 1e-12, 1e-9)):
                assert (np.linalg.norm(got[k] - ref[k])
                        <= tol * np.linalg.norm(ref[k]))
            assert got[order + 1:] == ref[order + 1:] == (None,) * (2 - order)
        for d, order in [(0.0, 0), (0.4, 0), (0.0, 1), (0.4, 1)]:
            for got, ref in zip(table.lag_sums(d, order),
                                fft.lag_sums(d, order)):
                assert (got is None) == (ref is None)
                assert got is None or np.array_equal(got, ref)
        # the FFT rows are the transforms of the unit rows, scaled once
        for d in (0.0, 0.1, 0.3):
            for order in (1, 2):
                rows = np.array([
                    fft._convolve(np.fft.rfft(kernel, fft._nfft))
                    for kernel in _unit_rows(family, d, fft.J, order)])
                want = _scaled(family, d, rows)
                got = fft.lag_sums(d, order)
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
        spec, lspec = CoeffSpec(family, 2000), LSPECS[variant]
        sample = table_samples[n]
        data = sample if variant == "full" else sample.x_obs
        table = PathEvaluator(lspec, spec, data, d_range=(0.0, 0.45))
        fft = PathEvaluator(lspec, spec, data)
        ds = [1e-6, 1e-4, 0.01125] + list(np.linspace(0.05, 0.45, 9))
        for d in ds:
            ref = full_size_fft_sums(lspec, spec, sample, d)
            for ev in (table, fft):
                got = ev.lag_sums(d, 0)[0]
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
                got, ref = table.lag_sums(d, 2), fft.lag_sums(d, 2)
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
            v2 = table.lag_sums(d, 2)[2]
            fd = (fft.lag_sums(d + h, 1)[1]
                  - fft.lag_sums(d - h, 1)[1]) / (2 * h)
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
                PathEvaluator(BAR, spec, case1_path.x_obs, d_range=bad)

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
