import math
import tracemalloc

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    NoiseMoments,
    SimConfig,
    Theta,
    gaussian_moments,
    limit_h0,
    predicted_rate,
    sandwich,
    simulate,
)
from larchpmle import asymptotics
from larchpmle.asymptotics import sigma_and_gradient
from larchpmle.errors import (
    DomainError,
    HistoryError,
    MissingMomentError,
    SingularityError,
)

from conftest import CASE1, CASE2
from oracles import h0_from_arrays


@pytest.fixture(scope="module")
def nm():
    return gaussian_moments(8)


class TestSigmaGradient:
    def test_matches_generated_sigma(self, spec, nm):
        s = simulate(spec, CASE1, SimConfig(n=400, burn_in=3000, J=2000,
                                            seed=3))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        assert sig == pytest.approx(s.sigma_obs, abs=1e-10)
        assert np.all(S[:, 2] == 1.0)

    def test_gradient_finite_differences(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=200, burn_in=3000, J=2000,
                                            seed=4))
        h = 1e-6
        sig, S = sigma_and_gradient(spec, CASE1, s)
        for i, e in enumerate(np.eye(3)[:2]):
            up = Theta(*(CASE1.as_array() + h * e))
            dn = Theta(*(CASE1.as_array() - h * e))
            fd = (sigma_and_gradient(spec, up, s)[0]
                  - sigma_and_gradient(spec, dn, s)[0]) / (2 * h)
            assert S[:, i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_burn_in_too_short(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=100, burn_in=500, J=2000,
                                            seed=5))
        with pytest.raises(HistoryError):
            sigma_and_gradient(spec, CASE1, s)

    def test_window_returns_window_length(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=400, burn_in=3000, J=2000,
                                            seed=3))
        sig, S = sigma_and_gradient(spec, CASE1, s, window=(101, 250))
        assert sig.shape == (150,) and S.shape == (150, 3)
        assert sig == pytest.approx(s.sigma_obs[100:250], abs=1e-10)


class TestSandwich:
    def test_short_burn_in_fails_before_simulating(self, spec, nm,
                                                   monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated a path too short for J lags")

        # both read their path from the simulator's pieces
        monkeypatch.setattr(asymptotics, "_pieces", no_simulate)
        with pytest.raises(HistoryError):
            sandwich(spec, CASE1, 0.01, nm, path_length=5000,
                     burn_in=spec.J - 1)
        with pytest.raises(HistoryError):
            limit_h0(spec, CASE1, path_length=5000, burn_in=spec.J - 1)

    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_blocks_match_whole_path_formula(self, family, nm):
        # sigma and its gradient are formed block by block; the sums
        # agree with one whole-path sigma_and_gradient sliced at the same
        # bounds (40001 points: blocks of 1250 and 1251)
        spec = CoeffSpec(family, 2000)
        n, eps = 40_001, 0.01
        res = sandwich(spec, CASE1, eps, nm, path_length=n, burn_in=2000,
                       seed=4)
        s = simulate(spec, CASE1, SimConfig(n=n, burn_in=2000, seed=4))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        s2e = sig ** 2 + eps
        wG = (nm.moment(4) - 1.0) * 4.0 * sig ** 6 / s2e ** 4
        wH = 4.0 * sig ** 2 / s2e ** 2
        bounds = np.linspace(0, n, 33).astype(int)
        assert len(set(np.diff(bounds))) == 2
        for w, total, se in ((wG, res.G, res.se_G), (wH, res.H, res.se_H)):
            sums = np.array([(S[lo:hi].T * w[lo:hi]) @ S[lo:hi]
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
            means = sums / np.diff(bounds)[:, None, None]
            np.testing.assert_allclose(total, sums.sum(axis=0) / n,
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(
                se, means.std(axis=0, ddof=1) / math.sqrt(32),
                rtol=1e-13, atol=0.0)

    def test_memory_beyond_sample_is_block_sized(self, spec, nm):
        # no path-length array exists: the path is streamed in pieces and
        # summed block by block, so the traced peak of the sandwich is at
        # most half that of simulating the path alone (6.2 MB, of which
        # the whole-path x, sigma and eps take 4.9 MB)
        n, burn_in = 200_000, 10_000
        tracemalloc.start()
        try:
            simulate(spec, CASE1, SimConfig(n=n, burn_in=burn_in, seed=1))
            sim_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sandwich(spec, CASE1, 0.01, nm, path_length=n, burn_in=burn_in,
                     seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim_peak / 2

    def test_degenerate_scale_flags_singularity(self, spec, nm):
        with pytest.raises(SingularityError):
            sandwich(spec, Theta(0.1, 0.0, 1.0), 0.01, nm,
                     path_length=30_000, burn_in=3000)

    def test_requires_fourth_moment(self, spec):
        nm2 = NoiseMoments(mu={1: 0.0, 2: 1.0}, mu_abs={2: 1.0})
        with pytest.raises(MissingMomentError):
            sandwich(spec, CASE1, 0.01, nm2, path_length=5000, burn_in=2100)

    def test_epsilon_positive(self, spec, nm):
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sandwich(spec, CASE1, eps, nm, path_length=5000)

    def test_kurtosis_scaling_of_G(self, spec, nm):
        # G carries the (E eps^4 - 1) factor; H does not
        nm_lighter = NoiseMoments(mu={1: 0.0, 2: 1.0, 4: 2.0},
                                  mu_abs={2: 1.0, 4: 2.0})
        r3 = sandwich(spec, CASE1, 0.01, nm, path_length=20_000,
                      burn_in=2100, seed=9)
        r2 = sandwich(spec, CASE1, 0.01, nm_lighter, path_length=20_000,
                      burn_in=2100, seed=9)
        assert r3.G == pytest.approx(2.0 * r2.G, rel=1e-12)
        assert r3.H == pytest.approx(r2.H, rel=1e-12)

    def test_matrices_positive_definite_both_cases(self, spec, nm):
        for th in (CASE1, CASE2):
            r = sandwich(spec, th, 0.01, nm, path_length=30_000,
                         burn_in=2100, seed=2)
            np.linalg.cholesky(r.G)
            np.linalg.cholesky(r.H)
            assert np.abs(r.cov - r.cov.T).max() < 1e-12
            assert np.all(r.sd > 0) and np.all(r.sd_joint > 0)

    def test_stable_under_path_doubling(self, spec, nm):
        r1 = sandwich(spec, CASE1, 0.01, nm, path_length=60_000,
                      burn_in=2100, seed=5)
        r2 = sandwich(spec, CASE1, 0.01, nm, path_length=120_000,
                      burn_in=2100, seed=6)
        assert np.all(np.abs(r1.G - r2.G) <= 2 * (r1.se_G + r2.se_G))
        assert np.all(np.abs(r1.H - r2.H) <= 2 * (r1.se_H + r2.se_H))

    def test_sd_continuous_in_epsilon(self, spec, nm):
        r1 = sandwich(spec, CASE1, 0.01, nm, path_length=40_000,
                      burn_in=2100, seed=7)
        r2 = sandwich(spec, CASE1, 0.0101, nm, path_length=40_000,
                      burn_in=2100, seed=7)
        assert np.abs(r1.sd - r2.sd).max() < 0.01 * np.abs(r1.sd).max()

    def test_standard_errors_from_blocks_covering_path(self, spec, nm):
        # 32 blocks of near equal length cover the path, so the last
        # n mod 32 points enter the standard errors too
        se_G = {}
        for n in (40, 63):
            res = sandwich(spec, CASE1, 0.01, nm, path_length=n,
                           burn_in=2000, seed=1)
            s = simulate(spec, CASE1, SimConfig(n=n, burn_in=2000, seed=1))
            sig, S = sigma_and_gradient(spec, CASE1, s)
            s2e = sig ** 2 + 0.01
            wG = (nm.moment(4) - 1.0) * 4.0 * sig ** 6 / s2e ** 4
            wH = 4.0 * sig ** 2 / s2e ** 2
            bounds = np.linspace(0, n, 33).astype(int)
            for w, got in ((wG, res.se_G), (wH, res.se_H)):
                means = [np.einsum("i,ij,ik->jk", w[lo:hi], S[lo:hi],
                                   S[lo:hi]) / (hi - lo)
                         for lo, hi in zip(bounds[:-1], bounds[1:])]
                want = np.std(means, axis=0, ddof=1) / math.sqrt(32)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            se_G[n] = res.se_G
        assert not np.any(np.isclose(se_G[40], se_G[63], rtol=1e-6))

    def test_empirical_score_outer_product_agrees(self, spec, nm):
        # the closed form for G equals the average of realized score
        # outer products on the same path, up to Monte-Carlo error
        s = simulate(spec, CASE1, SimConfig(n=100_000, burn_in=2100, J=2000,
                                            seed=11))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        eps = 0.01
        s2e = sig ** 2 + eps
        x = s.x_obs
        r = 1.0 - (x * x + eps) / s2e
        sc = (r * 2.0 * sig / s2e)[:, None] * S
        G_emp = sc.T @ sc / len(x)
        res = sandwich(spec, CASE1, eps, nm, path_length=100_000,
                       burn_in=2100, seed=11)
        assert np.abs(res.G - G_emp).max() <= 0.10 * np.abs(res.G).max()


def blocks_of(sigma, S):
    """A stand-in for asymptotics._blocks that yields sigma and S split at
    the bounds of the 32 blocks of a path of their length (at least 32)."""
    bounds = np.linspace(0, len(sigma), 33).astype(int)
    return lambda *args: ((sigma[lo:hi], S[lo:hi])
                          for lo, hi in zip(bounds[:-1], bounds[1:]))


# (family, J, theta, path length, burn-in): where the monitor settles and
# where it does not, at and around the path lengths where the blocks are
# single points, and with more than one piece of the streamed path
H0_PATHS = ([("power", 2000, CASE1, n, 2000)
             for n in (2, 3, 20, 31, 32, 33, 40, 63, 40_001, 200_000)]
            + [("power", 2000, CASE2, 40_001, 2000),
               ("farima", 2000, Theta(0.2, 0.3, 1.0), 40_001, 2000),
               ("power", 2000, Theta(0.1, 0.0, 1.3), 40_001, 2000),
               ("power", 20_000, CASE1, 40_001, 20_000),
               ("power", 40, CASE1, 40_001, 40)])


class TestLimitH0:
    def test_constant_sigma_closed_form(self, spec):
        th = Theta(0.1, 0.0, 1.3)
        res = limit_h0(spec, th, path_length=200_000, burn_in=2100, seed=2)
        assert not res.diverged
        assert res.matrix[2, 2] == pytest.approx(4.0 / th.a ** 2, rel=0.02)
        assert res.matrix[0, 0] == 0.0

    @pytest.mark.parametrize("family, J, theta, n, burn_in", H0_PATHS)
    def test_blocks_match_whole_path_oracle(self, family, J, theta, n,
                                            burn_in):
        # summed block by block, the average and its monitor agree with
        # the same monitor over one whole-path sigma_and_gradient
        spec = CoeffSpec(family, J)
        res = limit_h0(spec, theta, path_length=n, burn_in=burn_in, seed=4)
        s = simulate(spec, theta, SimConfig(n=n, burn_in=burn_in, seed=4))
        want = h0_from_arrays(*sigma_and_gradient(spec, theta, s))
        assert res.diverged == want.diverged
        np.testing.assert_allclose(res.checkpoints, want.checkpoints,
                                   rtol=1e-13, atol=0.0)
        if want.diverged:
            assert res.matrix is None
        else:
            np.testing.assert_allclose(res.matrix, want.matrix, rtol=1e-13,
                                       atol=1e-13 * np.abs(want.matrix).max())

    def test_matrix_is_sandwich_H_at_zero_epsilon(self, farima_spec, nm):
        # 4 sdot sdot^T / sigma^2 is the weight of H at eps = 0
        th = Theta(0.2, 0.3, 1.0)
        res = limit_h0(farima_spec, th, path_length=40_001, burn_in=2000,
                       seed=4)
        assert not res.diverged
        H = sandwich(farima_spec, th, 1e-300, nm, path_length=40_001,
                     burn_in=2000, seed=4).H
        np.testing.assert_allclose(res.matrix, H, rtol=1e-13,
                                   atol=1e-13 * np.abs(H).max())

    def test_memory_beyond_sample_is_block_sized(self, spec):
        # as the sandwich's: no path-length array exists, so the traced
        # peak is at most half that of simulating the path alone
        n, burn_in = 200_000, 10_000
        tracemalloc.start()
        try:
            simulate(spec, CASE1, SimConfig(n=n, burn_in=burn_in, seed=1))
            sim_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            limit_h0(spec, CASE1, path_length=n, burn_in=burn_in, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim_peak / 2

    def test_synthetic_heavy_tail_diverges(self, spec, monkeypatch):
        rng = np.random.default_rng(0)
        sigma = np.abs(rng.standard_normal(200_000))
        S = np.ones((200_000, 3))
        monkeypatch.setattr(asymptotics, "_blocks", blocks_of(sigma, S))
        assert limit_h0(spec, CASE1, path_length=200_000,
                        burn_in=2000).diverged

    def test_finite_average_is_plain_mean(self, spec, monkeypatch):
        # a settled, non-diverging average: the matrix is the mean of
        # 4 S_t S_t^T / sigma_t^2 (the plain einsum as oracle)
        rng = np.random.default_rng(7)
        n = 100_000
        sigma = 1.0 + 0.5 * rng.random(n)
        S = rng.standard_normal((n, 3))
        monkeypatch.setattr(asymptotics, "_blocks", blocks_of(sigma, S))
        res = limit_h0(spec, CASE1, path_length=n, burn_in=2000)
        assert not res.diverged
        want = np.einsum("i,ij,ik->jk", 4.0 / sigma ** 2, S, S) / n
        assert np.max(np.abs(res.matrix - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exact_zero_sigma_diverges(self, spec, monkeypatch):
        sigma = np.ones(1000)
        sigma[500] = 0.0
        monkeypatch.setattr(asymptotics, "_blocks",
                            blocks_of(sigma, np.ones((1000, 3))))
        assert limit_h0(spec, CASE1, path_length=1000, burn_in=2000).diverged


class TestPredictedRate:
    def test_border_rate(self):
        r = predicted_rate(1000, 0.6, 0.2)
        assert r.regime == "border"
        assert r.rate_exponent == pytest.approx(-0.3)

    def test_short_memory_edge(self):
        r = predicted_rate(1000, 1.0, 0.0)
        assert r.score_gap_order == pytest.approx(0.0)
        assert r.rate_exponent == pytest.approx(-0.5)
        assert r.regime == "border"

    def test_clt_regime_case2_like(self):
        r = predicted_rate(1000, 0.599, 0.2)
        assert r.score_gap_order == pytest.approx(-0.0005, abs=1e-12)
        assert r.regime == "clt"
        assert r.rate_exponent == pytest.approx(-0.2995)

    def test_open_regime(self):
        r = predicted_rate(1000, 0.9, 0.2)
        assert r.regime == "open"
        assert math.isnan(r.rate_exponent)

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_rate(1000, 0.0, 0.1)
        with pytest.raises(DomainError):
            predicted_rate(1000, 0.5, 0.6)
